// Package anz is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface that dbvet's passes are written
// against: an Analyzer is a named check, a Pass is one analyzer applied
// to one type-checked package, and diagnostics are reported through the
// pass. The repo's stdlib-only rule (see README) keeps x/tools out of
// go.mod, so the two dozen lines of driver plumbing that
// analysis/multichecker would provide live here instead; pass code is
// written so that a future migration onto the real go/analysis API is a
// mechanical rename.
//
// Beyond the x/tools core the framework carries the two dbvet comment
// directives:
//
//	//dbvet:allow <pass> <reason>
//	//dbvet:latch <class>
//
// The allow directive, on or immediately above an offending line,
// suppresses that pass's diagnostics for the line — the explicit escape
// hatch for intentional violations (the fault injector's deliberate wild
// writes, update brackets that span functions). The latch directive
// classifies a latch field declaration into the documented partial order
// (protection → codeword → syslog) for the latchorder pass; see
// directives.go.
package anz

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"

	"repro/internal/analysis/load"
)

// Analyzer is one static check. Mirrors analysis.Analyzer.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in allow directives.
	Name string
	// Doc is the one-line description shown by dbvet's usage text.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one reported problem, positioned and attributed to the
// pass that found it.
type Diagnostic struct {
	Pos     token.Position
	Message string
	Pass    string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Pass)
}

// Pass carries one analyzer's application to one package. Mirrors
// analysis.Pass, with object facts folded in (our runner visits packages
// in dependency order, so a fact exported while analyzing an imported
// package is visible when its importers are analyzed).
type Pass struct {
	Analyzer  *Analyzer
	Prog      *load.Program
	Pkg       *load.Package
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	facts  map[types.Object]any
	shared map[string]any
	report func(d Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Pass:    p.Analyzer.Name,
	})
}

// ExportFact attaches a fact to obj, visible to later packages analyzed
// by the same analyzer in this run.
func (p *Pass) ExportFact(obj types.Object, fact any) {
	if obj != nil {
		p.facts[obj] = fact
	}
}

// Fact returns the fact attached to obj by this analyzer, if any.
func (p *Pass) Fact(obj types.Object) (any, bool) {
	f, ok := p.facts[obj]
	return f, ok
}

// Shared returns a scratch map scoped to this analyzer's whole run,
// shared across packages. Used for program-wide accumulations that are
// not keyed by an object (e.g. obsnames' name→kind table).
func (p *Pass) Shared() map[string]any { return p.shared }

// Run applies each analyzer to every non-stdlib package of prog in
// dependency order (so facts flow from imported packages to importers)
// and returns the surviving diagnostics of the target packages, sorted
// by position. Diagnostics on lines covered by a matching
// //dbvet:allow directive are suppressed; malformed directives are
// themselves reported under the pass name "dbvet".
//
// Analyzers run concurrently, one goroutine each: facts and shared state
// are per-analyzer, the loaded program is read-only, and each goroutine
// appends to its own diagnostic slice — package dependency order is
// preserved within every analyzer. The parallelism is what keeps the
// `make vet` wall time flat as the pass count grows (the dominant cost,
// loading and type-checking the tree, is paid once up front by the
// caller).
func Run(prog *load.Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	targets := make(map[*load.Package]bool, len(prog.Targets))
	for _, pkg := range prog.Targets {
		targets[pkg] = true
	}

	allows, diags := collectDirectives(prog, analyzers)

	perAnalyzer := make([][]Diagnostic, len(analyzers))
	errs := make([]error, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			facts := make(map[types.Object]any)
			shared := make(map[string]any)
			for _, pkg := range prog.Packages {
				if pkg.Standard || pkg.Types == nil {
					continue
				}
				isTarget := targets[pkg]
				pass := &Pass{
					Analyzer:  a,
					Prog:      prog,
					Pkg:       pkg,
					Fset:      prog.Fset,
					Files:     pkg.Syntax,
					TypesInfo: pkg.TypesInfo,
					facts:     facts,
					shared:    shared,
					report: func(d Diagnostic) {
						if !isTarget {
							return
						}
						if allows.allowed(a.Name, d.Pos) {
							return
						}
						perAnalyzer[i] = append(perAnalyzer[i], d)
					},
				}
				if err := a.Run(pass); err != nil {
					errs[i] = fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
					return
				}
			}
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, ds := range perAnalyzer {
		diags = append(diags, ds...)
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Pass < diags[j].Pass
	})
	return diags, nil
}
