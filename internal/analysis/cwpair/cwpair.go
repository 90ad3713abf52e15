// Package cwpair statically enforces the paper's codeword-maintenance
// pairing: wherever an update captures a physical undo image (the "read
// old value" half of the XOR protocol), every successful exit from that
// update bracket must also fold the change into the region's codeword
// (the ApplyUpdate/UpdateDeltas half). A path that captures the before
// image but skips the fold leaves the codeword stale, and the next audit
// reports corruption that never happened — the exact dual of the data
// corruption the codewords exist to catch.
//
// Trigger points are EndUpdate methods of protect schemes and any
// function that calls an undo-capture primitive (PushPhysUndo,
// CaptureUndo). Within a triggered function the pass walks the statement
// tree tracking "a fold has happened on this path"; a return whose error
// result is nil (or a function exit with no error result at all) before
// any fold is a diagnostic. Returns carrying a non-nil error are exempt:
// a failed update is rolled back, not folded.
//
// Fold calls are recognized by name (ApplyUpdate, UpdateDeltas, XorInto,
// XorDelta, Fold, FoldDelta) and by fact: a function that folds on all
// its own paths exports a fact, so wrappers like cwScheme.drainQueue
// count at their call sites.
//
// The pass also enforces the ECC tier's plane-pairing rule: a function
// that stores into a codeword table (an assignment through a `cws`
// field) must maintain the locator planes in the same function —
// xorPlanesLocked, a planesLocked copy, or a rebuild — because a
// codeword updated without its planes leaves syndromes that misclassify
// repairable damage as unrepairable (or worse, locate the wrong word).
// Deliberate raw stores (checkpoint load) carry a //dbvet:allow.
package cwpair

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/anz"
)

// Analyzer is the cwpair pass.
var Analyzer = &anz.Analyzer{
	Name: "cwpair",
	Doc:  "undo-image capture must be paired with a codeword fold on every successful path",
	Run:  run,
}

// foldNames are the codeword-maintenance entry points; a call to any of
// these (as method or function) counts as the fold half of the pair.
var foldNames = map[string]bool{
	"ApplyUpdate":  true,
	"UpdateDeltas": true,
	"XorInto":      true,
	"XorDelta":     true,
	"Fold":         true,
	"FoldDelta":    true,
}

// planeNames are the locator-plane maintenance entry points; one of
// these (or any expression touching a `planes` field) must accompany a
// raw codeword store.
var planeNames = map[string]bool{
	"xorPlanesLocked": true,
	"planesLocked":    true,
	"rebuildPlanes":   true,
	"computeECC":      true,
}

// captureNames are the undo-image capture primitives that arm the pass.
var captureNames = map[string]bool{
	"PushPhysUndo": true,
	"CaptureUndo":  true,
}

// allowedPkgs are exempt wholesale: restart recovery rebuilds every
// codeword with RecomputeAll after redo completes (paper §4.3's
// recovery treatment), so its captured undo images legitimately carry
// no per-update fold.
var allowedPkgs = []string{
	"internal/recovery",
}

// foldsFact marks a function whose every path performs a codeword fold;
// calls to it count as folds in its callers.
type foldsFact struct{}

func run(pass *anz.Pass) error {
	for _, allowed := range allowedPkgs {
		if strings.HasSuffix(pass.Pkg.ImportPath, allowed) {
			return nil
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &checker{pass: pass, fn: fd}

			// Silent first walk: count would-be violations to decide the
			// fact. A function that folds somewhere and has no successful
			// exit without a fold is itself a fold from its callers' view
			// (wrappers like cwScheme.drainQueue).
			fold, terminated := c.walk(fd.Body.List, false)
			if !terminated && !fold {
				c.violations++
			}
			if c.violations == 0 && c.stmtFolds(fd.Body) {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					pass.ExportFact(obj, foldsFact{})
				}
			}

			checkPlanePairing(pass, fd)

			if !c.triggered(fd) {
				continue
			}
			c.armed = true
			fold, terminated = c.walk(fd.Body.List, false)
			// Falling off the end of the body is an implicit return.
			if !terminated && !fold {
				pass.Reportf(fd.Name.Pos(), "%s captures an undo image but reaches the end of the function without a codeword fold (ApplyUpdate/UpdateDeltas)", fd.Name.Name)
			}
		}
	}
	return nil
}

// checkPlanePairing reports codeword-table stores (assignments through a
// `cws` field) in functions that nowhere maintain the locator planes.
func checkPlanePairing(pass *anz.Pass, fd *ast.FuncDecl) {
	var stores []*ast.AssignStmt
	touchesPlanes := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "cws" {
						stores = append(stores, n)
					}
				}
			}
		case *ast.CallExpr:
			if planeNames[calleeName(n)] {
				touchesPlanes = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "planes" {
				touchesPlanes = true
			}
		}
		return true
	})
	if touchesPlanes {
		return
	}
	for _, s := range stores {
		pass.Reportf(s.Pos(), "stores a region codeword without maintaining the locator planes (pair the store with xorPlanesLocked or a planesLocked rebuild, or it leaves syndromes that misdiagnose damage)")
	}
}

type checker struct {
	pass *anz.Pass
	fn   *ast.FuncDecl
	// armed: second walk, reporting enabled.
	armed bool
	// violations counts fold-less successful exits on either walk.
	violations int
}

// triggered reports whether fd is held to the pairing discipline: it is
// a protect-scheme EndUpdate method, or it captures an undo image.
func (c *checker) triggered(fd *ast.FuncDecl) bool {
	if fd.Name.Name == "EndUpdate" && fd.Recv != nil {
		return true
	}
	captures := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && captureNames[calleeName(call)] {
			captures = true
		}
		return !captures
	})
	return captures
}

// walk processes a statement list with entry fold state in. It returns
// (fold, terminated): fold is true when every path reaching the end of
// the list has folded; terminated is true when no path reaches the end
// (all return or panic). Nil-error returns encountered while !fold are
// reported (when armed).
func (c *checker) walk(stmts []ast.Stmt, in bool) (fold, terminated bool) {
	fold = in
	for _, s := range stmts {
		if f, t := c.stmt(s, fold); t {
			return f, true
		} else if f {
			fold = true
		}
	}
	return fold, false
}

// stmt processes one statement; same contract as walk.
func (c *checker) stmt(s ast.Stmt, in bool) (fold, terminated bool) {
	fold = in
	switch s := s.(type) {
	case *ast.ReturnStmt:
		// `return tab.ApplyUpdate(...)` folds and propagates the error in
		// one statement: the fold counts for this path.
		if c.stmtFolds(s) {
			fold = true
		}
		if !fold && c.successfulReturn(s) {
			c.report(s.Pos(), "returns success without a codeword fold for the captured undo image (ApplyUpdate/UpdateDeltas missing on this path)")
		}
		return fold, true

	case *ast.BlockStmt:
		return c.walk(s.List, fold)

	case *ast.IfStmt:
		if c.stmtFolds(s.Init) {
			fold = true
		}
		thenFold, thenTerm := c.walk(s.Body.List, fold)
		elseFold, elseTerm := fold, false
		if s.Else != nil {
			elseFold, elseTerm = c.stmt(s.Else, fold)
		}
		if thenTerm && elseTerm {
			return fold, true
		}
		switch {
		case thenTerm:
			return elseFold, false
		case elseTerm:
			return thenFold, false
		default:
			return thenFold && elseFold, false
		}

	case *ast.ForStmt:
		if c.stmtFolds(s.Init) {
			fold = true
		}
		c.walk(s.Body.List, fold)
		// A for with no condition and no break never falls through; a
		// conditional loop may run zero times, so its body's folds do
		// not count afterwards.
		if s.Cond == nil && !hasBreak(s.Body) {
			return fold, true
		}
		return fold, false

	case *ast.RangeStmt:
		c.walk(s.Body.List, fold)
		return fold, false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.branches(s, fold)

	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, fold)

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return fold, true
				}
			}
		}
		return fold || c.stmtFolds(s), false

	default:
		// Assignments, defers, go statements, declarations: a fold call
		// anywhere inside (including a deferred closure) counts.
		return fold || c.stmtFolds(s), false
	}
}

// branches handles switch/type-switch/select: fold after the statement
// only if every non-terminating branch folds, and — for switches — a
// default branch exists (otherwise fall-through skips all cases).
func (c *checker) branches(s ast.Stmt, in bool) (fold, terminated bool) {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if c.stmtFolds(s.Init) {
			in = true
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	hasDefault := false
	allFold, allTerm := true, len(body.List) > 0
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			stmts = cl.Body
		}
		f, t := c.walk(stmts, in)
		if !t {
			allTerm = false
			if !f {
				allFold = false
			}
		}
	}
	if _, isSelect := s.(*ast.SelectStmt); isSelect {
		hasDefault = true // select blocks until a branch runs
	}
	if hasDefault && allTerm {
		return in, true
	}
	return in || (hasDefault && allFold), false
}

// stmtFolds reports whether a fold call occurs anywhere inside s,
// including deferred closures (a deferred fold runs before the bracket
// finishes from the caller's perspective).
func (c *checker) stmtFolds(s ast.Stmt) bool {
	if s == nil {
		return false
	}
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isFold(call) {
			found = true
		}
		return !found
	})
	return found
}

// isFold recognizes codeword-fold calls by name or by exported fact.
func (c *checker) isFold(call *ast.CallExpr) bool {
	name := calleeName(call)
	if foldNames[name] {
		return true
	}
	if obj := callee(c.pass, call); obj != nil {
		if _, ok := c.pass.Fact(obj); ok {
			return true
		}
	}
	return false
}

// successfulReturn reports whether ret is a success exit: its trailing
// error result (if the function has one) is the literal nil, or the
// function returns no error at all. Named-result naked returns are
// treated as successful (conservative: they are how the brackets here
// return success).
func (c *checker) successfulReturn(ret *ast.ReturnStmt) bool {
	results := c.fn.Type.Results
	if results == nil || len(results.List) == 0 {
		return true
	}
	last := results.List[len(results.List)-1]
	if named, ok := last.Type.(*ast.Ident); !ok || named.Name != "error" {
		return true
	}
	if len(ret.Results) == 0 {
		return true // naked return of named results
	}
	lastExpr := ast.Unparen(ret.Results[len(ret.Results)-1])
	if id, ok := lastExpr.(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	// Returning a variable or call result as the error: statically
	// unknown, assume it is the failure path.
	return false
}

// report counts a fold-less successful exit; only the armed (second)
// walk emits it — the first walk computes the fold-summary fact.
func (c *checker) report(pos token.Pos, msg string) {
	c.violations++
	if c.armed {
		c.pass.Reportf(pos, "%s", msg)
	}
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// callee resolves the called object, if statically known.
func callee(pass *anz.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// hasBreak reports whether body contains a break that exits this loop
// (nested loops and switches are not descended into for plain breaks).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BranchStmt:
			if n.(*ast.BranchStmt).Tok.String() == "break" {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false
		}
		return !found
	}
	ast.Inspect(body, scan)
	return found
}
