// Command dbvet is the repository's domain-specific static checker: a
// multichecker that runs the nine analysis passes enforcing the
// paper's concurrency, codeword-maintenance, durability, protocol, and
// replay-determinism disciplines over the tree.
//
//	latchorder    latch acquisition respects protection → codeword → syslog
//	              and releases on every path; the inferred global
//	              acquisition graph is acyclic; fields guarded by a latch
//	              on most paths are never accessed bare on others
//	guardedwrite  arena stores only via the prescribed update interface
//	cwpair        undo capture paired with a codeword fold on success paths
//	obsnames      metric names drawn from the closed obs namespace
//	iopath        durable-path file I/O flows through iofault.FS, not os
//	errflow       no discarded durable errors; errors.Is for sentinels;
//	              failed log syncs reach the poison transition
//	twophase      prepared transactions resolved exactly once, after a
//	              durable decision
//	ctxflow       *Ctx APIs thread their context into every blocking wait
//	determinism   no map-order, wall-clock, or goroutine-order
//	              nondeterminism reaches replayed state or report output
//
// Usage: dbvet [-json] [-stats] [-debt-baseline file] [packages]
// (defaults to ./...)
//
// With -json the diagnostics are emitted as a JSON array of
// {file,line,col,pass,message} objects on stdout (an empty array when
// clean), for CI and editor integration. Exits 1 when any diagnostic is
// reported, 2 on load failure. Suppress an intentional violation with
// //dbvet:allow <pass> <reason> on or above the offending line; see
// DESIGN.md "Machine-checked invariants".
//
// With -stats dbvet instead counts the //dbvet:allow sites per pass —
// the suppression debt — and emits them as JSON. -debt-baseline
// compares the counts against a checked-in baseline file (the gate run
// by make vet and CI): any pass whose debt grows beyond the baseline
// fails the run, so every new suppression must be argued in review and
// land together with an updated baseline; shrinking debt is reported so
// the baseline can be ratcheted down.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis/anz"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/cwpair"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/errflow"
	"repro/internal/analysis/guardedwrite"
	"repro/internal/analysis/iopath"
	"repro/internal/analysis/latchorder"
	"repro/internal/analysis/load"
	"repro/internal/analysis/obsnames"
	"repro/internal/analysis/twophase"
)

// analyzers is the one list of dbvet passes: //dbvet:allow directives
// are validated and counted against it.
var analyzers = []*anz.Analyzer{
	latchorder.Analyzer,
	guardedwrite.Analyzer,
	cwpair.Analyzer,
	obsnames.Analyzer,
	iopath.Analyzer,
	errflow.Analyzer,
	twophase.Analyzer,
	ctxflow.Analyzer,
	determinism.Analyzer,
}

// jsonDiag is the -json wire shape of one diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

// debtStats is the -stats wire shape: //dbvet:allow sites per pass.
type debtStats struct {
	AllowSites map[string]int `json:"allow_sites"`
	Total      int            `json:"total"`
}

func newDebtStats(counts map[string]int) debtStats {
	st := debtStats{AllowSites: counts}
	for _, n := range counts {
		st.Total += n
	}
	return st
}

// checkDebt compares current allow counts against the baseline,
// returning the passes whose debt grew (gate failures) and those whose
// debt shrank (baseline ratchet candidates).
func checkDebt(current, baseline map[string]int) (grown, shrunk []string) {
	passes := make(map[string]bool)
	for p := range current {
		passes[p] = true
	}
	for p := range baseline {
		passes[p] = true
	}
	names := make([]string, 0, len(passes))
	for p := range passes {
		names = append(names, p)
	}
	// Deterministic report order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, p := range names {
		cur, base := current[p], baseline[p]
		switch {
		case cur > base:
			grown = append(grown, fmt.Sprintf("%s: %d allow sites, baseline %d", p, cur, base))
		case cur < base:
			shrunk = append(shrunk, fmt.Sprintf("%s: %d allow sites, baseline %d", p, cur, base))
		}
	}
	return grown, shrunk
}

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON on stdout")
	stats := flag.Bool("stats", false, "count //dbvet:allow sites per pass instead of running the passes")
	debtBaseline := flag.String("debt-baseline", "", "with -stats: fail if allow counts exceed this baseline JSON file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dbvet [-json] [-stats] [-debt-baseline file] [packages]\n\npasses:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbvet:", err)
		os.Exit(2)
	}
	prog, err := load.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbvet:", err)
		os.Exit(2)
	}

	if *stats {
		os.Exit(runStats(prog, *debtBaseline))
	}

	diags, err := anz.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbvet:", err)
		os.Exit(2)
	}
	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Pass:    d.Pass,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "dbvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// runStats implements -stats: emit the suppression-debt counts and,
// with a baseline, enforce the no-growth gate. Returns the exit code.
func runStats(prog *load.Program, baselinePath string) int {
	st := newDebtStats(anz.CountAllows(prog, analyzers))
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		fmt.Fprintln(os.Stderr, "dbvet:", err)
		return 2
	}
	if baselinePath == "" {
		return 0
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbvet: reading debt baseline:", err)
		return 2
	}
	var base debtStats
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "dbvet: parsing debt baseline:", err)
		return 2
	}
	grown, shrunk := checkDebt(st.AllowSites, base.AllowSites)
	for _, s := range shrunk {
		fmt.Fprintf(os.Stderr, "dbvet: suppression debt shrank — ratchet the baseline: %s\n", s)
	}
	if len(grown) > 0 {
		for _, s := range grown {
			fmt.Fprintf(os.Stderr, "dbvet: suppression debt grew over baseline: %s\n", s)
		}
		fmt.Fprintf(os.Stderr, "dbvet: new //dbvet:allow sites need review; update %s in the same change\n", baselinePath)
		return 1
	}
	return 0
}
