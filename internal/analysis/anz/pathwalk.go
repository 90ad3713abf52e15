package anz

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the framework's reusable branch-path walker: the
// "does X happen on every path after Y" skeleton behind twophase's
// prepare-must-resolve post-dominance check. latchorder keeps its own
// held-latch walk, the one walk behind its order, cycle and field
// checks: they read the held set inside each branch arm and drop the
// arm's acquisitions where the arms meet, so there is nothing to merge.
//
// The walker drives a PathState through a function body in execution
// order. At a branch the state is cloned per arm; where arms meet again
// the surviving states are joined with Merge — so a hook observing the
// state at a statement sees exactly the facts that hold on *every* path
// reaching it (for AND-merged fields) or on *some* path (for OR-merged
// fields; the state implementation chooses per field). Loop bodies are
// walked with the entry state itself, so effects established inside a
// loop persist after it — the shape 2PC takes (prepare every participant
// in a loop, resolve them in a later one) demands it, and the passes
// built on the walker check "must eventually happen" properties for
// which the zero-iteration case is vacuous.

// PathState is the analysis state threaded along control-flow paths.
type PathState interface {
	// Clone returns an independent copy for a branch arm.
	Clone() PathState
	// Merge joins the state of another path meeting this one; it may
	// mutate and return the receiver.
	Merge(other PathState) PathState
}

// PathHooks receives the walk's events. Nil hooks are skipped.
type PathHooks struct {
	// Stmt fires for every leaf (non-control-flow) statement in execution
	// order: expression statements, assignments, declarations, defers, go
	// statements, channel sends, branch inits and posts, select comm
	// clauses. Control-flow statements are decomposed — their branches are
	// walked, not delivered whole — so a hook inspecting a delivered
	// statement never sees the same call twice.
	Stmt func(s ast.Stmt, st PathState)
	// Expr fires for conditions and tags (if/for conditions, switch tags,
	// range operands) on the path evaluating them.
	Expr func(e ast.Expr, st PathState)
	// Return fires at every return statement with the state after the
	// statement's own calls would run. The walk treats the path as
	// terminated afterwards.
	Return func(ret *ast.ReturnStmt, st PathState)
	// Exit fires when control falls off the end of the walked body (an
	// implicit return).
	Exit func(st PathState)
}

// WalkPaths drives st through body, invoking h's hooks. info (optional)
// lets the walker recognize the builtin panic as path termination.
func WalkPaths(body *ast.BlockStmt, st PathState, info *types.Info, h *PathHooks) {
	w := &pathWalker{info: info, h: h}
	out, terminated := w.stmts(body.List, st)
	if !terminated && h.Exit != nil {
		h.Exit(out)
	}
}

type pathWalker struct {
	info *types.Info
	h    *PathHooks
}

func (w *pathWalker) leaf(s ast.Stmt, st PathState) {
	if s != nil && w.h.Stmt != nil {
		w.h.Stmt(s, st)
	}
}

func (w *pathWalker) expr(e ast.Expr, st PathState) {
	if e != nil && w.h.Expr != nil {
		w.h.Expr(e, st)
	}
}

// stmts walks a statement list; terminated reports that no path reaches
// the end of the list (every path returned, panicked or branched away).
func (w *pathWalker) stmts(list []ast.Stmt, st PathState) (PathState, bool) {
	for _, s := range list {
		var term bool
		st, term = w.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *pathWalker) stmt(s ast.Stmt, st PathState) (PathState, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)

	case *ast.ReturnStmt:
		if w.h.Return != nil {
			w.h.Return(s, st)
		}
		return st, true

	case *ast.BranchStmt:
		// break/continue/goto leave this path's straight-line flow; the
		// walker conservatively ends the path (like a return without the
		// return hook).
		return st, true

	case *ast.IfStmt:
		w.leaf(s.Init, st)
		w.expr(s.Cond, st)
		thenOut, thenTerm := w.stmts(s.Body.List, st.Clone())
		elseOut, elseTerm := st, false
		if s.Else != nil {
			elseOut, elseTerm = w.stmt(s.Else, st.Clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			return thenOut.Merge(elseOut), false
		}

	case *ast.ForStmt:
		w.leaf(s.Init, st)
		w.expr(s.Cond, st)
		w.leaf(s.Post, st)
		// The body mutates st in place: what the loop establishes holds
		// after it (see the package comment on the zero-iteration case).
		out, _ := w.stmts(s.Body.List, st)
		if s.Cond == nil && !hasLoopBreak(s.Body) {
			return out, true // for {} never falls through
		}
		return out, false

	case *ast.RangeStmt:
		w.expr(s.X, st)
		out, _ := w.stmts(s.Body.List, st)
		return out, false

	case *ast.SwitchStmt:
		w.leaf(s.Init, st)
		w.expr(s.Tag, st)
		return w.clauses(s.Body, st, hasDefaultClause(s.Body))

	case *ast.TypeSwitchStmt:
		w.leaf(s.Init, st)
		w.leaf(s.Assign, st)
		return w.clauses(s.Body, st, hasDefaultClause(s.Body))

	case *ast.SelectStmt:
		// A select blocks until some clause runs: exhaustive like a
		// switch with default.
		return w.clauses(s.Body, st, true)

	case *ast.ExprStmt:
		if w.isPanic(s.X) {
			w.leaf(s, st)
			return st, true
		}
		w.leaf(s, st)
		return st, false

	default:
		// Assignments, declarations, defers, go statements, sends,
		// inc/dec: leaf statements.
		w.leaf(s, st)
		return st, false
	}
}

// clauses walks the case/comm clauses of body, each with a cloned state,
// and joins the survivors. Without a default clause the zero-case
// fall-through path (the entry state) joins too.
func (w *pathWalker) clauses(body *ast.BlockStmt, st PathState, exhaustive bool) (PathState, bool) {
	var merged PathState
	for _, cl := range body.List {
		var stmts []ast.Stmt
		arm := st.Clone()
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.expr(e, arm)
			}
			stmts = cl.Body
		case *ast.CommClause:
			w.leaf(cl.Comm, arm)
			stmts = cl.Body
		}
		out, term := w.stmts(stmts, arm)
		if term {
			continue
		}
		if merged == nil {
			merged = out
		} else {
			merged = merged.Merge(out)
		}
	}
	if !exhaustive {
		if merged == nil {
			return st, false
		}
		return merged.Merge(st), false
	}
	if merged == nil {
		// Every clause terminated (and the statement is exhaustive): no
		// path falls through.
		return st, len(body.List) > 0
	}
	return merged, false
}

// isPanic recognizes a call to the builtin panic.
func (w *pathWalker) isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if w.info == nil {
		return true
	}
	_, isBuiltin := w.info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// hasLoopBreak reports whether body contains a break exiting this loop
// (plain breaks only; nested loops, switches and selects consume theirs).
func hasLoopBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false
		}
		return !found
	})
	return found
}

// hasDefaultClause reports whether a switch body has a default case.
func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}
