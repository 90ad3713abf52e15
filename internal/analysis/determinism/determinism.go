// Package determinism is the machine-checked form of the parallel-log
// claim "parallel redo is bit-identical to serial replay": recovery,
// audit, and transaction-resolution code must not let a nondeterminism
// source reach replayed state or report output. Three rules:
//
//  1. Map order. A `range` over a map runs in randomized order; a loop
//     body that accumulates into a slice (without sorting it afterward
//     in the same function), emits bytes or text, sends on a channel,
//     concatenates strings, assigns loop-derived values to outer
//     variables, or returns a loop-derived value makes that order
//     observable. Order-insensitive bodies — writes into another map,
//     delete, commutative `+=`, the max/min selection idiom (an
//     assignment guarded by a comparison), constant returns — are
//     sanctioned, as is the accumulate-then-sort shape the recovery
//     report uses.
//
//  2. Wall clock and randomness. Values derived from time.Now /
//     time.Since / math/rand must not be stored into structs, slices or
//     maps, returned, or written out: two replays of the same log would
//     diverge. The one sanctioned sink is the obs metrics registry
//     (histograms of recovery timing are telemetry, not state).
//
//  3. Goroutine interleaving. Inside a spawned goroutine, appending to
//     a slice captured from the enclosing function orders results by
//     scheduling accident. The deterministic chunk protocol — each
//     worker writes only its own index (per[i] = append(per[i], …)) —
//     is the sanctioned shape, the one region.RunChunked uses to return
//     per-chunk results in chunk order.
//
// Scope: the recovery, audit (internal/check) and shard-resolution
// packages, where replay determinism is the paper-level contract.
package determinism

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/anz"
)

// Analyzer is the determinism pass.
var Analyzer = &anz.Analyzer{
	Name: "determinism",
	Doc:  "no nondeterminism source (map order, wall clock, goroutine interleaving) may reach replayed state or report output",
	Run:  run,
}

var scopePkgs = []string{
	"internal/recovery",
	"internal/check",
	"internal/shard",
}

func inScope(importPath string) bool {
	for _, p := range scopePkgs {
		if strings.HasSuffix(importPath, p) {
			return true
		}
	}
	return strings.Contains(importPath, "/testdata/")
}

type checker struct {
	pass *anz.Pass
}

func run(pass *anz.Pass) error {
	if !inScope(pass.Pkg.ImportPath) {
		return nil
	}
	c := &checker{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkMapRanges(fd.Body)
				c.checkClockTaint(fd.Body)
				c.checkGoroutineAppends(fd.Body)
			}
		}
	}
	return nil
}

// ---- rule 1: map iteration order ----

func (c *checker) checkMapRanges(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := c.pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if reason := c.orderSensitive(rs, body); reason != "" {
			c.pass.Reportf(rs.Pos(), "iterates a map in nondeterministic order and %s; iterate sorted keys instead", reason)
		}
		return true
	})
}

// orderSensitive scans a map-range body for effects that observe the
// iteration order, returning a description of the first one found.
func (c *checker) orderSensitive(rs *ast.RangeStmt, fnBody *ast.BlockStmt) string {
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	reason := ""
	found := func(r string) {
		if reason == "" {
			reason = r
		}
	}
	c.walkOrdered(rs.Body, loopVars, false, rs, fnBody, found)
	return reason
}

// walkOrdered walks a map-range body in source order, growing the
// loop-derived taint set and classifying each effect. inCompareIf marks
// statements guarded by a comparison (the max/min selection idiom).
func (c *checker) walkOrdered(stmt ast.Stmt, taint map[types.Object]bool, inCompareIf bool, rs *ast.RangeStmt, fnBody *ast.BlockStmt, found func(string)) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			c.walkOrdered(st, taint, inCompareIf, rs, fnBody, found)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkOrdered(s.Init, taint, inCompareIf, rs, fnBody, found)
		}
		guarded := inCompareIf || isComparison(s.Cond)
		c.walkOrdered(s.Body, taint, guarded, rs, fnBody, found)
		if s.Else != nil {
			c.walkOrdered(s.Else, taint, guarded, rs, fnBody, found)
		}
	case *ast.ForStmt:
		c.walkOrdered(s.Body, taint, inCompareIf, rs, fnBody, found)
	case *ast.RangeStmt:
		c.walkOrdered(s.Body, taint, inCompareIf, rs, fnBody, found)
	case *ast.SwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					c.walkOrdered(st, taint, inCompareIf, rs, fnBody, found)
				}
			}
		}
	case *ast.SendStmt:
		found("sends on a channel from the loop body")
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if c.usesTaint(r, taint) {
				found("returns a loop-derived value")
			}
		}
	case *ast.ExprStmt:
		c.scanEmitCalls(s.X, found)
	case *ast.AssignStmt:
		c.classifyAssign(s, taint, inCompareIf, rs, fnBody, found)
	}
}

// classifyAssign sorts a loop-body assignment into the sanctioned and
// order-sensitive shapes.
func (c *checker) classifyAssign(s *ast.AssignStmt, taint map[types.Object]bool, inCompareIf bool, rs *ast.RangeStmt, fnBody *ast.BlockStmt, found func(string)) {
	// Grow the taint set first: x := k propagates.
	defer func() {
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = c.pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			rhs := ast.Expr(nil)
			if i < len(s.Rhs) {
				rhs = s.Rhs[i]
			} else if len(s.Rhs) == 1 {
				rhs = s.Rhs[0]
			}
			if rhs != nil && c.usesTaint(rhs, taint) {
				taint[obj] = true
			}
		}
	}()
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if i < len(s.Rhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		c.scanEmitCalls(rhs, found)
		// Accumulator append: dst = append(dst, …) — order-sensitive
		// unless dst is sorted after the loop in the same function.
		if acc := accumulatorAppend(c.pass.TypesInfo, lhs, rhs); acc != "" {
			if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); !isIndex && !c.sortedAfter(acc, rs, fnBody) {
				found("appends to " + acc + " in iteration order (not sorted afterward)")
			}
			continue
		}
		// Writes into another map, and deletes, are order-insensitive.
		if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			continue
		}
		// String concatenation accumulates in iteration order.
		if s.Tok == token.ADD_ASSIGN && isString(c.pass.TypesInfo.TypeOf(lhs)) {
			found("concatenates strings in iteration order")
			continue
		}
		// Commutative numeric accumulation is order-insensitive.
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			continue
		}
		// Assignment of a loop-derived value to a variable declared
		// outside the loop, unguarded by a comparison.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			obj := c.pass.TypesInfo.Uses[id]
			if obj != nil && !declaredWithin(obj, rs.Body) && rhs != nil && c.usesTaint(rhs, taint) && !inCompareIf {
				found("assigns a loop-derived value to " + id.Name + " (last iteration wins)")
			}
			continue
		}
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
			if rhs != nil && c.usesTaint(rhs, taint) && !inCompareIf {
				found("assigns a loop-derived value to " + render(sel) + " (last iteration wins)")
			}
		}
	}
}

// accumulatorAppend matches dst = append(dst, …) and the
// dst = pkg.AppendX(dst, …) encoder shape, returning dst's render.
func accumulatorAppend(info *types.Info, lhs, rhs ast.Expr) string {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return ""
	}
	name := ""
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name != "append" && !strings.HasPrefix(name, "Append") {
		return ""
	}
	dst := render(lhs)
	if render(call.Args[0]) != dst {
		return ""
	}
	return dst
}

// sortedAfter reports whether a sort.* / slices.* call on dst appears
// after the loop in the enclosing function — the accumulate-then-sort
// shape.
func (c *checker) sortedAfter(dst string, rs *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		if render(arg) == dst {
			sorted = true
			return false
		}
		// sort.Sort(byID(dst)): unwrap a conversion.
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 && render(ast.Unparen(conv.Args[0])) == dst {
			sorted = true
			return false
		}
		return true
	})
	return sorted
}

// scanEmitCalls flags calls that write bytes or text (in iteration
// order when reached from a map-range body).
func (c *checker) scanEmitCalls(e ast.Expr, found func(string)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isEmitName(sel.Sel.Name) {
			found("emits output via " + render(sel) + " in iteration order")
			return false
		}
		return true
	})
}

func isEmitName(name string) bool {
	for _, p := range []string{"Write", "Fprint", "Print", "Encode"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// ---- rule 2: wall clock and randomness ----

func (c *checker) checkClockTaint(body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)
	c.clockWalk(body, tainted)
}

// clockWalk visits statements in source order, propagating taint from
// clock/random sources through assignments and reporting sinks.
func (c *checker) clockWalk(stmt ast.Stmt, tainted map[types.Object]bool) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			c.clockWalk(st, tainted)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.clockWalk(s.Init, tainted)
		}
		c.clockWalk(s.Body, tainted)
		if s.Else != nil {
			c.clockWalk(s.Else, tainted)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.clockWalk(s.Init, tainted)
		}
		c.clockWalk(s.Body, tainted)
	case *ast.RangeStmt:
		c.clockWalk(s.Body, tainted)
	case *ast.SwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					c.clockWalk(st, tainted)
				}
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if i < len(s.Rhs) {
				rhs = s.Rhs[i]
			} else if len(s.Rhs) == 1 {
				rhs = s.Rhs[0]
			}
			if rhs == nil || !c.clockTainted(rhs, tainted) {
				continue
			}
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				if obj := objOf(c.pass.TypesInfo, l); obj != nil {
					tainted[obj] = true
				}
			case *ast.SelectorExpr:
				c.pass.Reportf(s.Pos(), "stores a wall-clock/random value into %s; replayed state must be deterministic", render(l))
			case *ast.IndexExpr:
				c.pass.Reportf(s.Pos(), "stores a wall-clock/random value into %s; replayed state must be deterministic", render(l))
			}
		}
		c.scanClockSinkCalls(s, tainted)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if c.clockTainted(r, tainted) {
				c.pass.Reportf(s.Pos(), "returns a wall-clock/random value; replayed results must be deterministic")
			}
		}
	case *ast.ExprStmt:
		c.scanClockSinkCalls(s, tainted)
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.clockWalk(lit.Body, tainted)
		}
	case *ast.DeferStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.clockWalk(lit.Body, tainted)
		}
	}
}

// scanClockSinkCalls reports tainted arguments reaching emit-family
// calls (report output); obs metric sinks are sanctioned telemetry.
func (c *checker) scanClockSinkCalls(stmt ast.Stmt, tainted map[types.Object]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isEmitName(sel.Sel.Name) {
			return true
		}
		for _, a := range call.Args {
			if c.clockTainted(a, tainted) {
				c.pass.Reportf(call.Pos(), "writes a wall-clock/random value to output; report content must be deterministic")
				return false
			}
		}
		return true
	})
}

// clockTainted reports whether an expression derives from a clock or
// random source or a tainted variable. Metric observation calls are
// not sources and stop the scan.
func (c *checker) clockTainted(e ast.Expr, tainted map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := objOf(c.pass.TypesInfo, n); obj != nil && tainted[obj] {
				found = true
			}
		case *ast.CallExpr:
			if c.isClockSource(n) {
				found = true
				return false
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && c.isObsMethod(sel) {
				return false
			}
		}
		return !found
	})
	return found
}

// isClockSource matches time.Now/Since/Until and math/rand calls.
func (c *checker) isClockSource(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, _ := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return true
		}
	case "math/rand", "math/rand/v2":
		return true
	}
	return false
}

// isObsMethod matches methods on the repo's obs metric handles.
func (c *checker) isObsMethod(sel *ast.SelectorExpr) bool {
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}

// ---- rule 3: goroutine-order-dependent appends ----

func (c *checker) checkGoroutineAppends(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		c.checkCapturedAppends(lit)
		return true
	})
}

// checkCapturedAppends flags x = append(x, …) inside a goroutine body
// where x is captured from the enclosing function. The indexed form
// per[i] = append(per[i], …) — each worker owning one slot — is the
// sanctioned chunk protocol.
func (c *checker) checkCapturedAppends(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			var rhs ast.Expr
			if i < len(as.Rhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
			if rhs == nil || accumulatorAppend(c.pass.TypesInfo, lhs, rhs) == "" {
				continue
			}
			switch l := ast.Unparen(lhs).(type) {
			case *ast.IndexExpr:
				// per-worker slot: deterministic chunk protocol.
			case *ast.Ident:
				if obj := objOf(c.pass.TypesInfo, l); obj != nil && !declaredWithin(obj, lit.Body) {
					c.pass.Reportf(as.Pos(), "appends to captured slice %s from a goroutine; order depends on scheduling — give each worker its own indexed slot", l.Name)
				}
			case *ast.SelectorExpr:
				c.pass.Reportf(as.Pos(), "appends to captured slice %s from a goroutine; order depends on scheduling — give each worker its own indexed slot", render(l))
			}
		}
		return true
	})
}

// ---- helpers ----

func (c *checker) usesTaint(e ast.Expr, taint map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := objOf(c.pass.TypesInfo, id); obj != nil && taint[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

func isComparison(e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func render(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return ""
	}
	return buf.String()
}
