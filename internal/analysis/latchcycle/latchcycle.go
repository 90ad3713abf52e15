// Package latchcycle infers the program's global latch-acquisition
// graph and reports every cycle the static graph admits.
//
// The latchorder pass checks acquisitions against the documented class
// rank list (protection → codeword → syslog); that catches inversions
// *between* classes but says nothing about two latches of the same
// class — or of no class at all — taken in opposite orders on two code
// paths, which is the textbook deadlock the rank list cannot see.
// This pass generalizes the fixed list into an inferred order: every
// latch declaration (a latch/mutex struct field or package-level
// variable) is a graph node, and acquiring B while holding A — directly
// or through a callee that transitively acquires B — adds the edge
// A → B. The graph accumulates across packages in analyzer-shared
// state, with per-function acquisition summaries exported as facts so
// an inversion split across packages still closes. An edge whose
// insertion makes its target reach its source completes a cycle, which
// is reported once, at the acquisition that closed it.
//
// Division of labor with latchorder: rank-list violations are
// latchorder's; this pass reports only cycles between distinct latch
// declarations, so the two passes never double-report one site.
package latchcycle

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/anz"
)

// Analyzer is the latchcycle pass.
var Analyzer = &anz.Analyzer{
	Name: "latchcycle",
	Doc:  "no two latches may be acquired in opposite orders on different code paths",
	Run:  run,
}

// fnFact is the exported per-function summary: the latch declarations
// the function transitively acquires, and — for accessor functions —
// the single latch declaration it returns.
type fnFact struct {
	Acquires map[types.Object]bool
	Returns  types.Object
}

// graphState is the cross-package accumulation living in the analyzer's
// shared map.
type graphState struct {
	// edges[u][v] records that v was acquired while u was held.
	edges map[types.Object]map[types.Object]bool
	// labels renders each node for diagnostics (pkg.Type.field).
	labels map[types.Object]string
	// reported dedups cycles by their canonical node-set key.
	reported map[string]bool
}

func sharedGraph(pass *anz.Pass) *graphState {
	sh := pass.Shared()
	g, ok := sh["graph"].(*graphState)
	if !ok {
		g = &graphState{
			edges:    make(map[types.Object]map[types.Object]bool),
			labels:   make(map[types.Object]string),
			reported: make(map[string]bool),
		}
		sh["graph"] = g
	}
	return g
}

type checker struct {
	pass  *anz.Pass
	graph *graphState
	// trans holds package-local transitive acquire sets post-fixpoint.
	trans map[*types.Func]map[types.Object]bool
	// returns maps package-local accessors to the latch they hand out.
	returns map[*types.Func]types.Object
	// aliases maps local latch variables to their declaration node.
	aliases map[types.Object]types.Object
}

type fnInfo struct {
	acquires map[types.Object]bool
	callees  []*types.Func
}

func run(pass *anz.Pass) error {
	c := &checker{
		pass:    pass,
		graph:   sharedGraph(pass),
		trans:   make(map[*types.Func]map[types.Object]bool),
		returns: make(map[*types.Func]types.Object),
		aliases: make(map[types.Object]types.Object),
	}
	c.collectLabels()

	// Phase A: direct per-function summaries, package-local fixpoint,
	// fact export (mirrors latchorder's summary machinery, with latch
	// declarations in place of latch classes).
	infos := make(map[*types.Func]*fnInfo)
	var order []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			c.aliases = make(map[types.Object]types.Object)
			infos[obj] = c.summarize(fd.Body)
			if ret := c.returnedLatch(fd); ret != nil {
				c.returns[obj] = ret
			}
			order = append(order, obj)
			c.trans[obj] = cloneSet(infos[obj].acquires)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			set := c.trans[fn]
			for _, callee := range infos[fn].callees {
				for n := range c.calleeAcquires(callee) {
					if !set[n] {
						set[n] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fn := range order {
		pass.ExportFact(fn, fnFact{Acquires: c.trans[fn], Returns: c.returns[fn]})
	}

	// Phase B: walk every body tracking held latch declarations; each
	// acquisition under a held latch adds an edge and may close a cycle.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.aliases = make(map[types.Object]types.Object)
				c.walkStmts(fd.Body.List, nil)
			}
		}
	}
	return nil
}

// collectLabels names every latch declaration of this package for
// diagnostics: pkg.Type.field for struct fields, pkg.var for
// package-level variables.
func (c *checker) collectLabels() {
	pkgName := c.pass.Pkg.Name
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					obj := c.pass.TypesInfo.Defs[name]
					if obj != nil && isLockDecl(obj.Type()) {
						c.graph.labels[obj] = pkgName + "." + ts.Name.Name + "." + name.Name
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := c.pass.TypesInfo.Defs[name]
					if obj != nil && isLockDecl(obj.Type()) {
						c.graph.labels[obj] = pkgName + "." + name.Name
					}
				}
			}
		}
	}
}

// summarize records the latch declarations a body directly acquires
// (including inside closures) and its resolvable callees.
func (c *checker) summarize(body *ast.BlockStmt) *fnInfo {
	info := &fnInfo{acquires: make(map[types.Object]bool)}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			c.recordAliases(as)
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, node := c.lockOp(call); op == opAcquire && node != nil {
			info.acquires[node] = true
		} else if op == opNone {
			if callee := calleeOf(c.pass.TypesInfo, call); callee != nil {
				info.callees = append(info.callees, callee)
			}
		}
		return true
	})
	return info
}

// returnedLatch classifies accessors that hand out one specific latch
// declaration (every return resolves to the same node).
func (c *checker) returnedLatch(fd *ast.FuncDecl) types.Object {
	obj, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() != 1 || !isLockDecl(sig.Results().At(0).Type()) {
		return nil
	}
	var node types.Object
	consistent := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		r := c.resolveNode(ret.Results[0])
		if r == nil || (node != nil && node != r) {
			consistent = false
			return true
		}
		node = r
		return true
	})
	if !consistent {
		return nil
	}
	return node
}

func (c *checker) calleeAcquires(fn *types.Func) map[types.Object]bool {
	if set, ok := c.trans[fn]; ok {
		return set
	}
	if f, ok := c.pass.Fact(fn); ok {
		if fact, ok := f.(fnFact); ok {
			return fact.Acquires
		}
	}
	return nil
}

// ---- phase B walk ----

type lockOpKind int

const (
	opNone lockOpKind = iota
	opAcquire
	opRelease
)

func (c *checker) walkStmts(stmts []ast.Stmt, held []types.Object) []types.Object {
	for _, stmt := range stmts {
		held = c.walkStmt(stmt, held)
	}
	return held
}

func cloneNodes(held []types.Object) []types.Object {
	return append([]types.Object(nil), held...)
}

func (c *checker) walkStmt(stmt ast.Stmt, held []types.Object) []types.Object {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return c.scanExpr(s.X, held)
	case *ast.AssignStmt:
		c.recordAliases(s)
		for _, rhs := range s.Rhs {
			held = c.scanExpr(rhs, held)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = c.scanExpr(v, held)
					}
				}
			}
		}
		return held
	case *ast.DeferStmt:
		// Deferred releases run at return: the latch stays held for
		// the remainder of the walk, which is exactly the window in
		// which a nested acquisition builds an edge.
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = c.scanExpr(r, held)
		}
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		held = c.scanExpr(s.Cond, held)
		c.walkStmts(s.Body.List, cloneNodes(held))
		if s.Else != nil {
			c.walkStmt(s.Else, cloneNodes(held))
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		c.walkStmts(s.Body.List, cloneNodes(held))
		return held
	case *ast.RangeStmt:
		c.walkStmts(s.Body.List, cloneNodes(held))
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, cloneNodes(held))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, cloneNodes(held))
			}
		}
		return held
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				c.walkStmts(cc.Body, cloneNodes(held))
			}
		}
		return held
	case *ast.BlockStmt:
		return c.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, held)
	case *ast.GoStmt:
		// A goroutine starts with an empty held set (it does not
		// inherit the spawner's latches).
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, nil)
		}
		return held
	}
	return held
}

// scanExpr processes lock operations and summarized calls inside one
// expression, in AST order.
func (c *checker) scanExpr(e ast.Expr, held []types.Object) []types.Object {
	if e == nil {
		return held
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures run under the spawner's latch regime when
			// invoked inline; analyzed with the current held set.
			c.walkStmts(n.Body.List, cloneNodes(held))
			return false
		case *ast.CallExpr:
			switch op, node := c.lockOp(n); op {
			case opAcquire:
				if node != nil {
					for _, u := range held {
						c.addEdge(u, node, n.Pos())
					}
					held = append(held, node)
				}
				return true
			case opRelease:
				if node != nil {
					held = removeNode(held, node)
				}
				return true
			}
			if callee := calleeOf(c.pass.TypesInfo, n); callee != nil {
				for _, v := range c.sortedNodes(c.calleeAcquires(callee)) {
					for _, u := range held {
						c.addEdge(u, v, n.Pos())
					}
				}
			}
		}
		return true
	}
	ast.Inspect(e, visit)
	return held
}

// sortedNodes orders a node set by label so edge insertion — and with
// it, which edge is seen to close a cycle — is deterministic.
func (c *checker) sortedNodes(set map[types.Object]bool) []types.Object {
	nodes := make([]types.Object, 0, len(set))
	for n := range set {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return c.label(nodes[i]) < c.label(nodes[j]) })
	return nodes
}

func removeNode(held []types.Object, node types.Object) []types.Object {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == node {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// addEdge inserts u → v and reports when the insertion closes a cycle
// (v already reaches u). Self-edges are not cycles between two latches.
func (c *checker) addEdge(u, v types.Object, pos token.Pos) {
	if u == nil || v == nil || u == v {
		return
	}
	succ := c.graph.edges[u]
	if succ == nil {
		succ = make(map[types.Object]bool)
		c.graph.edges[u] = succ
	}
	if succ[v] {
		return
	}
	succ[v] = true
	if path := c.pathBetween(v, u); path != nil {
		cycle := path // v … u, closed back to v by the new edge u → v
		key := cycleKey(c.graph, cycle)
		if !c.graph.reported[key] {
			c.graph.reported[key] = true
			c.pass.Reportf(pos, "acquiring %s while holding %s closes a latch-order cycle: %s",
				c.label(v), c.label(u), c.renderCycle(cycle))
		}
	}
}

// pathBetween returns a node path from src to dst along recorded edges,
// or nil if dst is unreachable.
func (c *checker) pathBetween(src, dst types.Object) []types.Object {
	seen := map[types.Object]bool{src: true}
	var dfs func(n types.Object) []types.Object
	dfs = func(n types.Object) []types.Object {
		if n == dst {
			return []types.Object{n}
		}
		// Deterministic order: sort successors by label.
		succs := make([]types.Object, 0, len(c.graph.edges[n]))
		for s := range c.graph.edges[n] {
			succs = append(succs, s)
		}
		sort.Slice(succs, func(i, j int) bool { return c.label(succs[i]) < c.label(succs[j]) })
		for _, s := range succs {
			if seen[s] {
				continue
			}
			seen[s] = true
			if rest := dfs(s); rest != nil {
				return append([]types.Object{n}, rest...)
			}
		}
		return nil
	}
	return dfs(src)
}

func cycleKey(g *graphState, cycle []types.Object) string {
	labels := make([]string, 0, len(cycle))
	for _, n := range cycle {
		labels = append(labels, g.labels[n])
	}
	sort.Strings(labels)
	return strings.Join(labels, "|")
}

func (c *checker) renderCycle(cycle []types.Object) string {
	parts := make([]string, 0, len(cycle)+1)
	for _, n := range cycle {
		parts = append(parts, c.label(n))
	}
	parts = append(parts, c.label(cycle[0]))
	return strings.Join(parts, " → ")
}

func (c *checker) label(n types.Object) string {
	if l, ok := c.graph.labels[n]; ok {
		return l
	}
	if n.Pkg() != nil {
		return n.Pkg().Name() + "." + n.Name()
	}
	return n.Name()
}

// ---- node resolution ----

// lockOp recognizes latch mutations and resolves the declaration node
// they act on.
func (c *checker) lockOp(call *ast.CallExpr) (lockOpKind, types.Object) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, nil
	}
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok {
		return opNone, nil
	}
	t := tv.Type
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if isLatchNamed(t, "Latch") || isSyncMutex(t) {
			return opAcquire, c.resolveNode(sel.X)
		}
	case "Unlock", "RUnlock":
		if isLatchNamed(t, "Latch") || isSyncMutex(t) {
			return opRelease, c.resolveNode(sel.X)
		}
	case "AcquireRange":
		if isLatchNamed(t, "Striped") {
			return opAcquire, c.resolveNode(sel.X)
		}
	}
	return opNone, nil
}

// resolveNode maps a latch-valued expression to its declaration: the
// struct field or package variable it names, through aliases, stripe
// accessors (s.prot.For(r) → s.prot) and accessor-function facts.
func (c *checker) resolveNode(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		var obj types.Object
		if sel, ok := c.pass.TypesInfo.Selections[e]; ok {
			obj = sel.Obj()
		} else {
			obj = c.pass.TypesInfo.Uses[e.Sel]
		}
		if obj != nil && isLockDecl(obj.Type()) {
			return obj
		}
		return nil
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return nil
		}
		if target, ok := c.aliases[obj]; ok {
			return target
		}
		// A package-level latch variable is its own node; a local with
		// no recorded alias is unresolvable.
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v
		}
		return nil
	case *ast.UnaryExpr:
		return c.resolveNode(e.X)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "For" {
			if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok && isLatchNamed(tv.Type, "Striped") {
				return c.resolveNode(sel.X)
			}
		}
		if callee := calleeOf(c.pass.TypesInfo, e); callee != nil {
			if ret, ok := c.returns[callee]; ok {
				return ret
			}
			if f, ok := c.pass.Fact(callee); ok {
				if fact, ok := f.(fnFact); ok && fact.Returns != nil {
					return fact.Returns
				}
			}
		}
	}
	return nil
}

// recordAliases notes lk := <latch expr> so lk.Lock() resolves.
func (c *checker) recordAliases(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj == nil || !isLockDecl(obj.Type()) {
			continue
		}
		if node := c.resolveNode(as.Rhs[i]); node != nil {
			c.aliases[obj] = node
		}
	}
}

// ---- type predicates ----

func isLockDecl(t types.Type) bool {
	return isLatchNamed(t, "Latch") || isLatchNamed(t, "Striped") || isSyncMutex(t)
}

func isLatchNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == "latch"
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return (obj.Name() == "Mutex" || obj.Name() == "RWMutex") && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func cloneSet(s map[types.Object]bool) map[types.Object]bool {
	out := make(map[types.Object]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}
