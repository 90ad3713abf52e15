// Package latchorder statically enforces the latch discipline documented
// in DESIGN.md. One walk per function body tracks the latches held at
// every statement, and three checks read it:
//
//  1. Order and balance. The three paper latches form a partial
//     acquisition order — protection latch → codeword latch → system-log
//     latch — and no code path may acquire a latch while holding one of
//     a later class. A Lock/RLock on a latch.Latch, sync.Mutex or
//     sync.RWMutex — or a latch.Striped.AcquireRange guard — must also be
//     released on every return path, inline or by defer. Guards that
//     escape (stored into a token, returned, captured) transfer ownership
//     and are exempt; brackets that intentionally return holding a latch
//     carry a //dbvet:allow latchorder directive naming the releaser.
//
//  2. Cycles. Every latch declaration (a latch or mutex struct field or
//     package-level variable) is a node of one program-wide graph, and
//     acquiring B while holding A adds the edge A → B. An edge whose
//     insertion closes a cycle is reported once per cycle, at the
//     acquisition that closed it. This covers the latches the rank list
//     cannot see: two mutexes of no class, or of one class, nested in
//     opposite orders. An edge the order check already reports is left
//     out of the graph, so one inversion is reported once.
//
//  3. Fields. In the engine's concurrent packages (scopePkgs), each data
//     field of a struct declaring a latch is guarded by the latch held at
//     the most of its access sites; when guarded sites dominate (at least
//     two, and more than the bare ones) the bare sites are reported — the
//     Eraser lockset rule in static form. Constructor-shaped functions
//     (new*/open*/init*) are exempt, a *Locked method starts holding its
//     receiver's latch, and fields that synchronize themselves (locks,
//     atomics, channels, obs handles) are not tracked.
//
// The held set. Each held latch records its rendered expression, its
// declaration (or nil), its class, the lock method, the position and
// whether it is released by a defer or has escaped. Latches are
// classified by //dbvet:latch annotations on their declarations, with a
// name fallback ("prot…" → protection, "cw…" → codeword, "…log…" →
// syslog). Branch arms and loop bodies are walked with a copy of the
// held set that is not propagated past the branch. An inline closure (a
// sort comparator, a worker-pool task, a deferred func) inherits the held
// set at its definition; the inherited latches are not its own to
// release. A go statement's closure starts with an empty held set.
//
// The summary. Each function exports one fact: the latch declarations it
// transitively acquires in its own goroutine (computed to a fixpoint over
// the package's call graph) and, for an accessor, the declaration it
// returns. A call made while a latch is held is checked against the
// callee's summary by both the order and the cycle check, so an
// inversion split across functions or packages is still reported.
// Interface method calls contribute no summary.
package latchorder

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/anz"
	"repro/internal/analysis/facts"
)

// Analyzer is the latchorder pass.
var Analyzer = &anz.Analyzer{
	Name: "latchorder",
	Doc:  "latch order (protection → codeword → syslog), unlock on all paths, no acquisition cycles, no bare access to latch-guarded fields",
	Run:  run,
}

// scopePkgs are the packages whose structs are held to the field check:
// everything that shares mutable engine state across goroutines.
var scopePkgs = []string{
	"internal/wal",
	"internal/shard",
	"internal/ckpt",
	"internal/lockmgr",
	"internal/region",
}

func inScope(importPath string) bool {
	for _, p := range scopePkgs {
		if strings.HasSuffix(importPath, p) {
			return true
		}
	}
	return strings.Contains(importPath, "/testdata/")
}

// fnFact is the exported per-function summary.
type fnFact struct {
	Acquires map[types.Object]bool
	Returns  types.Object
}

// shared is the program-wide state kept in the analyzer's Shared map.
type shared struct {
	// classes holds the //dbvet:latch annotations of every package
	// analyzed so far, so a summary's declarations classify anywhere.
	classes map[types.Object]string
	// labels renders each declaration for diagnostics (pkg.Type.field).
	labels map[types.Object]string
	// edges[u][v] records that v was acquired while u was held.
	edges map[types.Object]map[types.Object]bool
	// reported dedups cycles by their canonical node-set key.
	reported map[string]bool
}

// latchRef is what a latch-valued expression resolves to.
type latchRef struct {
	decl  types.Object // the latch's field or package variable, or nil
	class string       // rank class; "" when unclassified
	base  string       // rendered receiver the latch guards
	field string       // the latch's field name there; "*" when unknown
}

// held is one latch held at a program point.
type held struct {
	latchRef
	rend     string       // rendered lock expression, for release matching
	guard    types.Object // local an AcquireRange guard is bound to
	method   string       // "Lock", "RLock", or "guard" for a MultiGuard
	pos      token.Pos
	deferred bool // released by a defer
	escaped  bool // released elsewhere: ownership moved or inherited
}

type checker struct {
	pass    *anz.Pass
	g       *shared
	aliases map[types.Object]latchRef
	// trans and returns are the package-local summaries.
	trans   map[*types.Func]map[types.Object]bool
	returns map[*types.Func]types.Object
	// offenses dedups balance diagnostics per acquisition site.
	offenses map[token.Pos]string
	// fieldsOn gates access-site recording for the current function.
	fieldsOn  bool
	fields    map[*types.Var]*fieldInfo
	guardable map[*types.Named]bool
}

func run(pass *anz.Pass) error {
	sh := pass.Shared()
	g, ok := sh["latchorder"].(*shared)
	if !ok {
		g = &shared{
			classes:  make(map[types.Object]string),
			labels:   make(map[types.Object]string),
			edges:    make(map[types.Object]map[types.Object]bool),
			reported: make(map[string]bool),
		}
		sh["latchorder"] = g
	}
	for obj, cls := range anz.LatchClasses(pass) {
		g.classes[obj] = cls
	}
	c := &checker{
		pass:      pass,
		g:         g,
		aliases:   make(map[types.Object]latchRef),
		trans:     make(map[*types.Func]map[types.Object]bool),
		returns:   make(map[*types.Func]types.Object),
		offenses:  make(map[token.Pos]string),
		fields:    make(map[*types.Var]*fieldInfo),
		guardable: make(map[*types.Named]bool),
	}
	c.collectLabels()

	var fds []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fds = append(fds, fd)
			}
		}
	}

	// The summary: direct acquisitions and callees per function, a
	// fixpoint over the package-local call graph, then fact export.
	callees := make(map[*types.Func][]*types.Func)
	var order []*types.Func
	for _, fd := range fds {
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		c.trans[fn], callees[fn] = c.summarize(fd.Body)
		if ret := c.returnedLatch(fn, fd.Body); ret != nil {
			c.returns[fn] = ret
		}
		order = append(order, fn)
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			set := c.trans[fn]
			for _, callee := range callees[fn] {
				for d := range c.summary(callee).Acquires {
					if !set[d] {
						set[d] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fn := range order {
		pass.ExportFact(fn, fnFact{Acquires: c.trans[fn], Returns: c.returns[fn]})
	}

	// The walk of every body, feeding the three checks.
	scoped := inScope(pass.Pkg.ImportPath)
	for _, fd := range fds {
		c.fieldsOn = scoped && !constructorShaped(fd.Name.Name)
		var start []*held
		// The *Locked suffix convention: the caller holds (one of) the
		// receiver's latches for the whole body.
		if recv := recvName(fd); recv != "" && strings.HasSuffix(fd.Name.Name, "Locked") {
			start = append(start, &held{latchRef: latchRef{base: recv, field: "*"}, escaped: true})
		}
		c.walkBody(fd.Body, start)
	}
	for pos, msg := range c.offenses {
		pass.Reportf(pos, "%s", msg)
	}
	c.reportFields()
	return nil
}

// ---- the summary ----

// summarize records the latch declarations a body directly acquires in
// its own goroutine (inline closures included, go statements' callees
// and closures not) and its statically resolvable callees.
func (c *checker) summarize(body *ast.BlockStmt) (map[types.Object]bool, []*types.Func) {
	acquires := make(map[types.Object]bool)
	var callees []*types.Func
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.recordAliases(n)
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				ast.Inspect(a, visit)
			}
			return false
		case *ast.CallExpr:
			switch op, sel := lockOp(c.pass.TypesInfo, n); op {
			case opAcquire, opAcquireGuard:
				if d := c.resolve(sel.X).decl; d != nil {
					acquires[d] = true
				}
			case opNone:
				if callee := facts.CalleeFunc(c.pass.TypesInfo, n); callee != nil {
					callees = append(callees, callee)
				}
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return acquires, callees
}

// returnedLatch resolves an accessor that hands out one latch
// declaration: a single lock-typed result whose every return resolves to
// the same declaration (region's latchFor).
func (c *checker) returnedLatch(fn *types.Func, body *ast.BlockStmt) types.Object {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() != 1 || !isLockType(sig.Results().At(0).Type()) {
		return nil
	}
	var decl types.Object
	consistent := true
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		d := c.resolve(ret.Results[0]).decl
		if d == nil || (decl != nil && decl != d) {
			consistent = false
		}
		decl = d
		return true
	})
	if !consistent {
		return nil
	}
	return decl
}

// summary is fn's summary: the package-local one while fn's package is
// analyzed (its facts are exported after the fixpoint), else its fact.
func (c *checker) summary(fn *types.Func) fnFact {
	if set, ok := c.trans[fn]; ok {
		return fnFact{Acquires: set, Returns: c.returns[fn]}
	}
	f, _ := c.pass.Fact(fn)
	sum, _ := f.(fnFact)
	return sum
}

// ---- the walk ----

func clone(hs []*held) []*held {
	return append([]*held(nil), hs...)
}

// walkBody walks one function or closure body and reports the latches
// it acquired and still holds where control falls off its end.
func (c *checker) walkBody(body *ast.BlockStmt, hs []*held) {
	c.checkExit(c.walkStmts(body.List, hs))
}

func (c *checker) walkStmts(stmts []ast.Stmt, hs []*held) []*held {
	for _, stmt := range stmts {
		hs = c.walkStmt(stmt, hs)
	}
	return hs
}

func (c *checker) walkStmt(stmt ast.Stmt, hs []*held) []*held {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return c.scan(s.X, hs, nil, nil)
	case *ast.AssignStmt:
		c.recordAliases(s)
		writes := c.recordWrites(hs, s.Lhs...)
		var bind *ast.Ident
		if len(s.Lhs) == 1 {
			bind, _ = s.Lhs[0].(*ast.Ident)
		}
		for _, lhs := range s.Lhs {
			hs = c.scan(lhs, hs, writes, nil)
		}
		for _, rhs := range s.Rhs {
			hs = c.scan(rhs, hs, writes, bind)
		}
		return hs
	case *ast.IncDecStmt:
		return c.scan(s.X, hs, c.recordWrites(hs, s.X), nil)
	case *ast.SendStmt:
		return c.scan(s.Value, c.scan(s.Chan, hs, nil, nil), nil, nil)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						hs = c.scan(v, hs, nil, nil)
					}
				}
			}
		}
		return hs
	case *ast.DeferStmt:
		return c.deferStmt(s.Call, hs)
	case *ast.GoStmt:
		// The arguments are evaluated by the spawner; the goroutine
		// itself starts with an empty held set.
		for _, a := range s.Call.Args {
			hs = c.scan(a, hs, nil, nil)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			c.markCaptures(lit, hs)
			c.walkBody(lit.Body, nil)
		}
		return hs
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			hs = c.scan(r, hs, nil, nil)
		}
		c.checkExit(hs)
		return hs
	case *ast.IfStmt:
		hs = c.walkStmt(s.Init, hs)
		hs = c.scan(s.Cond, hs, nil, nil)
		c.walkStmts(s.Body.List, clone(hs))
		if s.Else != nil {
			c.walkStmt(s.Else, clone(hs))
		}
		return hs
	case *ast.ForStmt:
		hs = c.walkStmt(s.Init, hs)
		body := c.scan(s.Cond, clone(hs), nil, nil)
		c.walkStmt(s.Post, c.walkStmts(s.Body.List, body))
		return hs
	case *ast.RangeStmt:
		hs = c.scan(s.X, hs, nil, nil)
		c.walkStmts(s.Body.List, clone(hs))
		return hs
	case *ast.SwitchStmt:
		hs = c.walkStmt(s.Init, hs)
		hs = c.scan(s.Tag, hs, nil, nil)
		c.walkClauses(s.Body, hs)
		return hs
	case *ast.TypeSwitchStmt:
		hs = c.walkStmt(s.Init, hs)
		hs = c.walkStmt(s.Assign, hs)
		c.walkClauses(s.Body, hs)
		return hs
	case *ast.SelectStmt:
		c.walkClauses(s.Body, hs)
		return hs
	case *ast.BlockStmt:
		return c.walkStmts(s.List, hs)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, hs)
	}
	return hs
}

// walkClauses walks each case or comm clause with its own copy of hs.
func (c *checker) walkClauses(body *ast.BlockStmt, hs []*held) {
	for _, cl := range body.List {
		arm := clone(hs)
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				arm = c.scan(e, arm, nil, nil)
			}
			c.walkStmts(cl.Body, arm)
		case *ast.CommClause:
			c.walkStmts(cl.Body, c.walkStmt(cl.Comm, arm))
		}
	}
}

// deferStmt pins released latches: a deferred Unlock/Release, or one
// inside a deferred closure, releases at every exit. A deferred closure
// is otherwise walked as an inline closure; the arguments of other
// deferred calls are evaluated now.
func (c *checker) deferStmt(call *ast.CallExpr, hs []*held) []*held {
	if _, ok := c.release(hs, call, true); ok {
		return hs
	}
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		for _, a := range call.Args {
			hs = c.scan(a, hs, nil, nil)
		}
		return hs
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok {
			c.release(hs, inner, true)
		}
		return true
	})
	c.walkClosure(lit, hs)
	return hs
}

// walkClosure walks an inline closure under the held set at its
// definition. The inherited latches are the enclosing body's to
// release, so the closure gets escaped copies; a guard the closure
// captures has escaped the enclosing body.
func (c *checker) walkClosure(lit *ast.FuncLit, hs []*held) {
	c.markCaptures(lit, hs)
	inherited := make([]*held, len(hs))
	for i, h := range hs {
		cp := *h
		cp.escaped = true
		inherited[i] = &cp
	}
	c.walkBody(lit.Body, inherited)
}

func (c *checker) markCaptures(lit *ast.FuncLit, hs []*held) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			c.markEscape(id, hs)
		}
		return true
	})
}

// markEscape marks the guard id names as escaped: its value is used
// outside a release call, so ownership has moved.
func (c *checker) markEscape(id *ast.Ident, hs []*held) {
	if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
		for _, h := range hs {
			if h.guard == obj {
				h.escaped = true
			}
		}
	}
}

// scan processes one expression in evaluation order: lock operations
// update the held set, other calls are checked against their callee's
// summary, closures are walked, and field selectors are recorded as
// reads unless writes already holds them as stores. bind is the local
// an AcquireRange guard at the root of e is assigned to.
func (c *checker) scan(e ast.Expr, hs []*held, writes map[ast.Expr]bool, bind *ast.Ident) []*held {
	if e == nil {
		return hs
	}
	root := ast.Unparen(e)
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.walkClosure(n, hs)
			return false
		case *ast.CallExpr:
			b := bind
			if n != root {
				b = nil
			}
			hs = c.call(n, hs, b)
		case *ast.SelectorExpr:
			if !writes[n] {
				c.recordAccess(n, hs, false)
			}
			// Descend into the base but not the Sel identifier.
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			c.markEscape(n, hs)
		}
		return true
	}
	ast.Inspect(e, visit)
	return hs
}

// call processes one call: an acquisition runs the order and cycle
// checks and joins the held set, a release leaves it, and any other
// statically resolved call is checked against its callee's summary.
func (c *checker) call(call *ast.CallExpr, hs []*held, bind *ast.Ident) []*held {
	if rest, ok := c.release(hs, call, false); ok {
		return rest
	}
	if op, sel := lockOp(c.pass.TypesInfo, call); op != opNone {
		ref := c.resolve(sel.X)
		c.orderCheck(call.Pos(), ref.class, hs, "")
		c.addEdges(call.Pos(), hs, ref.decl, ref.class)
		h := &held{latchRef: ref, rend: render(sel.X), method: sel.Sel.Name, pos: call.Pos()}
		if op == opAcquireGuard {
			h.method, h.rend = "guard", ""
			if bind != nil && bind.Name != "_" {
				h.rend, h.guard = bind.Name, c.pass.TypesInfo.ObjectOf(bind)
			} else {
				// Guard value not bound to a local: ownership moved
				// somewhere this analysis cannot follow.
				h.escaped = true
			}
		}
		return append(hs, h)
	}
	callee := facts.CalleeFunc(c.pass.TypesInfo, call)
	if callee == nil {
		return hs
	}
	classes := make(map[string]bool)
	for _, d := range c.sortedNodes(c.summary(callee).Acquires) {
		cls := c.classOf(d)
		if !classes[cls] {
			classes[cls] = true
			c.orderCheck(call.Pos(), cls, hs, callee.Name())
		}
		c.addEdges(call.Pos(), hs, d, cls)
	}
	return hs
}

// release handles call if it is an Unlock, RUnlock or guard Release: the
// most recent matching held latch leaves the held set or, for a defer,
// is pinned as released at every exit. Releases with no matching
// acquisition — a latch the caller holds, cross-function brackets — are
// ignored. ok reports whether call is a release at all.
func (c *checker) release(hs []*held, call *ast.CallExpr, deferred bool) (rest []*held, ok bool) {
	op, sel := lockOp(c.pass.TypesInfo, call)
	method := "Lock"
	switch {
	case op == opReleaseGuard:
		method = "guard"
	case op != opRelease:
		return hs, false
	case sel.Sel.Name == "RUnlock":
		method = "RLock"
	}
	rend := render(sel.X)
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].rend == rend && hs[i].method == method {
			if deferred {
				hs[i].deferred = true
				return hs, true
			}
			return append(hs[:i:i], hs[i+1:]...), true
		}
	}
	return hs, true
}

// checkExit records a balance offense for every latch the body still
// holds as its own.
func (c *checker) checkExit(hs []*held) {
	for _, h := range hs {
		if h.deferred || h.escaped {
			continue
		}
		if h.method == "guard" {
			c.offenses[h.pos] = "guard from AcquireRange is not released on every return path (missing defer Release?)"
			continue
		}
		unlock := "Unlock"
		if h.method == "RLock" {
			unlock = "RUnlock"
		}
		c.offenses[h.pos] = h.rend + "." + h.method + "() is not released on every return path (missing defer " + h.rend + "." + unlock + "()?)"
	}
}

// ---- check 1: order ----

// orderCheck reports the acquisition of class cls while a later-ranked
// latch is held. callee names the summarized function for
// interprocedural reports; empty for direct acquisitions.
func (c *checker) orderCheck(pos token.Pos, cls string, hs []*held, callee string) {
	rank := anz.LatchRank(cls)
	if rank == 0 {
		return
	}
	for _, h := range hs {
		if anz.LatchRank(h.class) > rank {
			if callee != "" {
				c.pass.Reportf(pos, "call to %s acquires the %s latch while the %s latch is held (documented order: protection → codeword → syslog)", callee, cls, h.class)
			} else {
				c.pass.Reportf(pos, "acquires the %s latch while the %s latch is held (documented order: protection → codeword → syslog)", cls, h.class)
			}
			return
		}
	}
}

// ---- check 2: cycles ----

// collectLabels names every latch declaration of this package for
// diagnostics: pkg.Type.field for struct fields, pkg.var for
// package-level variables.
func (c *checker) collectLabels() {
	pkgName := c.pass.Pkg.Name
	label := func(name *ast.Ident, l string) {
		if obj := c.pass.TypesInfo.Defs[name]; obj != nil && isLockType(obj.Type()) {
			c.g.labels[obj] = l
		}
	}
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							label(name, pkgName+"."+ts.Name.Name+"."+name.Name)
						}
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						label(name, pkgName+"."+name.Name)
					}
				}
			}
		}
	}
}

// addEdges records v (of class cls) acquired under every held
// declaration, reporting an edge whose insertion closes a cycle (v
// already reaches u). Self-edges are not cycles between two latches, and
// an inversion is the order check's to report.
func (c *checker) addEdges(pos token.Pos, hs []*held, v types.Object, cls string) {
	if v == nil {
		return
	}
	rank := anz.LatchRank(cls)
	for _, h := range hs {
		u := h.decl
		if u == nil || u == v || (rank > 0 && anz.LatchRank(h.class) > rank) {
			continue
		}
		succ := c.g.edges[u]
		if succ == nil {
			succ = make(map[types.Object]bool)
			c.g.edges[u] = succ
		}
		if succ[v] {
			continue
		}
		succ[v] = true
		cycle := c.pathBetween(v, u) // v … u, closed back to v by u → v
		if cycle == nil {
			continue
		}
		if key := c.cycleKey(cycle); !c.g.reported[key] {
			c.g.reported[key] = true
			c.pass.Reportf(pos, "acquiring %s while holding %s closes a latch-order cycle: %s",
				c.label(v), c.label(u), c.renderCycle(cycle))
		}
	}
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

// pathBetween returns a node path from src to dst along recorded edges,
// or nil if dst is unreachable.
func (c *checker) pathBetween(src, dst types.Object) []types.Object {
	seen := map[types.Object]bool{src: true}
	var dfs func(n types.Object) []types.Object
	dfs = func(n types.Object) []types.Object {
		if n == dst {
			return []types.Object{n}
		}
		for _, s := range c.sortedNodes(c.g.edges[n]) {
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

func (c *checker) cycleKey(cycle []types.Object) string {
	labels := make([]string, 0, len(cycle))
	for _, n := range cycle {
		labels = append(labels, c.g.labels[n])
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
	if l, ok := c.g.labels[n]; ok {
		return l
	}
	if n.Pkg() != nil {
		return n.Pkg().Name() + "." + n.Name()
	}
	return n.Name()
}

// ---- check 3: fields ----

// site is one access of a tracked field.
type site struct {
	pos   token.Pos
	write bool
	// held lists the latch field names held for the access's receiver
	// ("*" matches any candidate).
	held []string
}

// fieldInfo accumulates a field's access sites across the package.
type fieldInfo struct {
	fld   *types.Var
	owner string // struct type name, for diagnostics
	sites []*site
}

// constructorShaped reports functions in which the receiver (or result)
// is still private to one goroutine, so bare stores are expected.
func constructorShaped(name string) bool {
	for _, p := range []string{"new", "New", "open", "Open", "init", "Init"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// recordWrites records the field stores of assignment targets and
// returns their selectors so the scan does not record them again.
func (c *checker) recordWrites(hs []*held, targets ...ast.Expr) map[ast.Expr]bool {
	writes := make(map[ast.Expr]bool)
	for _, t := range targets {
		if sel := baseSelector(t); sel != nil {
			c.recordAccess(sel, hs, true)
			writes[sel] = true
		}
	}
	return writes
}

// baseSelector unwraps an assignment target to the field selector being
// stored through: t.cws[r] = 0 and *s.ptr = x both write the field.
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// recordAccess classifies one selector expression: if it reads or
// writes a tracked data field of a guardable struct, the access and the
// latches held for its receiver are recorded.
func (c *checker) recordAccess(sel *ast.SelectorExpr, hs []*held, write bool) {
	if !c.fieldsOn {
		return
	}
	selection, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	fld, ok := selection.Obj().(*types.Var)
	if !ok || fld.Pkg() == nil || fld.Pkg() != c.pass.Pkg.Types {
		return
	}
	recvT := selection.Recv()
	if p, ok := recvT.(*types.Pointer); ok {
		recvT = p.Elem()
	}
	named, ok := recvT.(*types.Named)
	if !ok || !c.isGuardable(named) || !trackedField(fld.Type()) {
		return
	}
	base := render(sel.X)
	var names []string
	for _, h := range hs {
		if h.base == base {
			names = append(names, h.field)
		}
	}
	fi := c.fields[fld]
	if fi == nil {
		fi = &fieldInfo{fld: fld, owner: named.Obj().Name()}
		c.fields[fld] = fi
	}
	fi.sites = append(fi.sites, &site{pos: sel.Pos(), write: write, held: names})
}

// isGuardable reports whether the named struct declares a latch field.
func (c *checker) isGuardable(named *types.Named) bool {
	if g, ok := c.guardable[named]; ok {
		return g
	}
	st, ok := named.Underlying().(*types.Struct)
	g := false
	if ok {
		for i := 0; i < st.NumFields(); i++ {
			if isLockType(st.Field(i).Type()) {
				g = true
				break
			}
		}
	}
	c.guardable[named] = g
	return g
}

func (c *checker) reportFields() {
	for _, fi := range c.fields {
		// Candidate latch: the specific latch name held at the most
		// sites; wildcard-held sites count toward every candidate.
		counts := make(map[string]int)
		for _, s := range fi.sites {
			for _, l := range s.held {
				if l != "*" {
					counts[l]++
				}
			}
		}
		candidate := "*"
		names := make([]string, 0, len(counts))
		for l := range counts {
			names = append(names, l)
		}
		sort.Strings(names)
		best := 0
		for _, l := range names {
			if counts[l] > best {
				best, candidate = counts[l], l
			}
		}
		guarded := 0
		var bareSites []*site
		for _, s := range fi.sites {
			if holdsCandidate(s.held, candidate) {
				guarded++
			} else {
				bareSites = append(bareSites, s)
			}
		}
		if guarded < 2 || guarded <= len(bareSites) {
			continue
		}
		lockName := candidate
		if lockName == "*" {
			lockName = "its latch"
		}
		for _, s := range bareSites {
			verb := "read"
			if s.write {
				verb = "written"
			}
			c.pass.Reportf(s.pos, "field %s of %s is guarded by %s at %d of %d sites but %s here with no latch held",
				fi.fld.Name(), fi.owner, lockName, guarded, guarded+len(bareSites), verb)
		}
	}
}

func holdsCandidate(held []string, candidate string) bool {
	for _, l := range held {
		if l == candidate || l == "*" || candidate == "*" {
			return true
		}
	}
	return false
}

// trackedField excludes fields that synchronize themselves: locks,
// atomics, channels, wait groups, and obs metric handles.
func trackedField(t types.Type) bool {
	if isLockType(t) {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		switch path := named.Obj().Pkg().Path(); {
		case path == "sync/atomic", path == "sync", strings.HasSuffix(path, "internal/obs"):
			return false
		}
	}
	return true
}

// ---- resolution ----

type lockOpKind int

const (
	opNone         lockOpKind = iota
	opAcquire                 // Lock / RLock on a latch or mutex
	opRelease                 // Unlock / RUnlock
	opAcquireGuard            // Striped.AcquireRange
	opReleaseGuard            // MultiGuard.Release
)

// lockOp recognizes latch operations by method name and receiver type,
// returning the call's selector.
func lockOp(info *types.Info, call *ast.CallExpr) (lockOpKind, *ast.SelectorExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, nil
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return opNone, nil
	}
	t := tv.Type
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if isLatchNamed(t, "Latch") || isSyncMutex(t) {
			return opAcquire, sel
		}
	case "Unlock", "RUnlock":
		if isLatchNamed(t, "Latch") || isSyncMutex(t) {
			return opRelease, sel
		}
	case "AcquireRange":
		if isLatchNamed(t, "Striped") {
			return opAcquireGuard, sel
		}
	case "Release":
		if isLatchNamed(t, "MultiGuard") {
			return opReleaseGuard, sel
		}
	}
	return opNone, nil
}

// recordAliases notes lk := <latch expr> so a later lk.Lock() resolves
// like the expression. An alias of nothing classifiable keeps the
// local's own name fallback.
func (c *checker) recordAliases(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := c.pass.TypesInfo.ObjectOf(id)
		if obj == nil || !isLockType(obj.Type()) {
			continue
		}
		ref := c.resolve(as.Rhs[i])
		if ref.class == "" {
			ref.class = nameFallback(id.Name)
		}
		c.aliases[obj] = ref
	}
}

// resolve maps a latch-valued expression to its declaration, class and
// guarded receiver: the struct field or package variable it names,
// through local aliases, stripe accessors (s.prot.For(r) → s.prot) and
// accessor-function summaries.
func (c *checker) resolve(e ast.Expr) latchRef {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.ObjectOf(e)
		if ref, ok := c.aliases[obj]; ok {
			return ref
		}
		ref := latchRef{class: nameFallback(e.Name), base: e.Name, field: "*"}
		// A package-level latch variable is its own declaration; a local
		// with no recorded alias is unresolvable.
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			ref.decl, ref.class = v, c.classOf(v)
		}
		return ref
	case *ast.SelectorExpr:
		ref := latchRef{class: nameFallback(e.Sel.Name), base: render(e.X), field: e.Sel.Name}
		obj := c.pass.TypesInfo.Uses[e.Sel]
		if sel, ok := c.pass.TypesInfo.Selections[e]; ok {
			obj = sel.Obj()
		}
		if obj != nil {
			ref.class = c.classOf(obj)
			if isLockType(obj.Type()) {
				ref.decl = obj
			}
		}
		return ref
	case *ast.UnaryExpr:
		return c.resolve(e.X)
	case *ast.CallExpr:
		ref := latchRef{base: render(e), field: "*"}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok && sel.Sel.Name == "For" && isLatchNamed(tv.Type, "Striped") {
				return c.resolve(sel.X)
			}
			// An accessor handing out one of the receiver's latches:
			// which latch field is unknown here, so it guards any
			// candidate.
			ref.base = render(sel.X)
		}
		if callee := facts.CalleeFunc(c.pass.TypesInfo, e); callee != nil {
			if d := c.summary(callee).Returns; d != nil {
				ref.decl, ref.class = d, c.classOf(d)
			}
		}
		return ref
	}
	return latchRef{base: render(e), field: "*"}
}

// classOf is a declaration's //dbvet:latch class or its name fallback.
func (c *checker) classOf(decl types.Object) string {
	if cls, ok := c.g.classes[decl]; ok {
		return cls
	}
	return nameFallback(decl.Name())
}

// nameFallback classifies by declaration name for unannotated code.
func nameFallback(name string) string {
	n := strings.ToLower(name)
	switch {
	case strings.Contains(n, "prot"):
		return anz.LatchProtection
	case strings.Contains(n, "cw") || strings.Contains(n, "codeword"):
		return anz.LatchCodeword
	case strings.Contains(n, "log"):
		return anz.LatchSyslog
	}
	return ""
}

// ---- type predicates ----

// isLockType reports latch.Latch, latch.Striped, sync.Mutex and
// sync.RWMutex (or pointers to them).
func isLockType(t types.Type) bool {
	return isLatchNamed(t, "Latch") || isLatchNamed(t, "Striped") || isSyncMutex(t)
}

// isLatchNamed reports whether t (or its pointee) is the named type
// latch.<name> from the repo's latch package.
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

// isSyncMutex reports whether t (or its pointee) is sync.Mutex or
// sync.RWMutex.
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

func render(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return ""
	}
	return buf.String()
}
