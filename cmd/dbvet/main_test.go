package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/anz"
	"repro/internal/analysis/anztest"
	"repro/internal/analysis/load"
)

// TestBuggySchemeDifferential runs the full multichecker over the
// synthetic buggy scheme, which commits one violation per check: once
// per pass, and once per latchorder check (order, field, cycle). Each
// must fire at the expected position — no misses, no bleed between
// passes.
func TestBuggySchemeDifferential(t *testing.T) {
	diags := anztest.Diagnostics(t, ".", "../../internal/analysis/testdata/buggyscheme", analyzers...)

	// Expected (file, line) per pass — generation 1 in buggy.go,
	// generation 2 in buggy2.go, generation 4 (lockset/lock-graph/
	// determinism rules) in buggy4.go; update alongside the fixtures.
	wantLines := map[string][]string{
		"latchorder": {
			"buggy.go:30",  // s.prot.Lock() under the syslog latch
			"buggy4.go:34", // durable watermark read outside its latch
			"buggy4.go:55", // idx/dat mutexes nested in opposite orders
		},
		"guardedwrite": {"buggy.go:37"},  // direct store through arena.Slice
		"cwpair":       {"buggy.go:44"},  // return nil without a fold
		"obsnames":     {"buggy.go:50"},  // undeclared metric name
		"iopath":       {"buggy2.go:15"}, // raw os.ReadFile on the durable path
		"errflow":      {"buggy2.go:24"}, // discarded SystemLog.Append error
		"twophase":     {"buggy2.go:37"}, // CommitPrepared before the decision
		"ctxflow":      {"buggy2.go:42"}, // context.Background() inside RunCtx
		"determinism":  {"buggy4.go:63"}, // in-doubt gids collected in map order
	}
	got := make(map[string][]string)
	total := 0
	for _, d := range diags {
		got[d.Pass] = append(got[d.Pass], fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line))
	}
	for pass, want := range wantLines {
		total += len(want)
		lines := got[pass]
		sort.Strings(lines)
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		if !slices.Equal(lines, sorted) {
			t.Errorf("%s: fired at %v, want %v", pass, lines, sorted)
		}
	}
	if len(diags) != total {
		t.Errorf("got %d diagnostics, want %d:", len(diags), total)
		for _, d := range diags {
			t.Errorf("  %s", d)
		}
	}
}

// TestAllowDirectives checks the escape hatch: a well-formed
// //dbvet:allow suppresses each pass, and a directive naming a pass not
// in analyzers (a retired one) is itself reported without suppressing
// anything.
func TestAllowDirectives(t *testing.T) {
	anztest.Run(t, ".", "../../internal/analysis/testdata/allow", analyzers...)
}

// TestAllowWithoutReason checks that a reason-less directive is rejected
// and does not suppress the violation under it. (Asserted directly: a
// want comment cannot share the directive's line, since trailing text
// would become the reason.)
func TestAllowWithoutReason(t *testing.T) {
	diags := anztest.Diagnostics(t, ".", "../../internal/analysis/testdata/allowbad", analyzers...)
	var sawMalformed, sawViolation bool
	for _, d := range diags {
		if d.Pass == "dbvet" && strings.Contains(d.Message, "a reason is required") {
			sawMalformed = true
		}
		if d.Pass == "obsnames" && strings.Contains(d.Message, "not declared") {
			sawViolation = true
		}
	}
	if !sawMalformed {
		t.Errorf("reason-less //dbvet:allow was not reported; got %v", diags)
	}
	if !sawViolation {
		t.Errorf("reason-less //dbvet:allow suppressed the violation; got %v", diags)
	}
	if len(diags) != 2 {
		t.Errorf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
}

// TestDebtGate pins the suppression-debt gate against the allow fixture
// tree (a known population of //dbvet:allow sites): counts match the
// fixture, one extra allow over baseline fails the gate, and one
// removed allow passes while flagging the baseline for a ratchet.
func TestDebtGate(t *testing.T) {
	prog, err := load.Load(".", "../../internal/analysis/testdata/allow")
	if err != nil {
		t.Fatalf("loading allow fixture: %v", err)
	}
	counts := anz.CountAllows(prog, analyzers)

	// The fixture's well-formed allow sites, one per check; the
	// malformed directive (a retired pass) in the same tree must not be
	// counted as debt.
	want := map[string]int{
		"latchorder":   3,
		"guardedwrite": 1,
		"cwpair":       1,
		"obsnames":     1,
		"iopath":       1,
		"errflow":      1,
		"twophase":     1,
		"ctxflow":      1,
		"determinism":  1,
	}
	if !maps.Equal(counts, want) {
		t.Errorf("allow fixture: counted %v, want %v", counts, want)
	}
	if st := newDebtStats(counts); st.Total != 11 {
		t.Errorf("allow fixture: total debt %d, want 11", st.Total)
	}

	// At baseline: no growth, no shrinkage.
	baseline := make(map[string]int, len(counts))
	for p, n := range counts {
		baseline[p] = n
	}
	if grown, shrunk := checkDebt(counts, baseline); len(grown) != 0 || len(shrunk) != 0 {
		t.Errorf("at baseline: grown=%v shrunk=%v, want none", grown, shrunk)
	}

	// One new allow site over baseline: the gate must fail that pass.
	baseline["errflow"]--
	grown, _ := checkDebt(counts, baseline)
	if len(grown) != 1 || !strings.Contains(grown[0], "errflow") {
		t.Errorf("debt growth not caught: grown=%v", grown)
	}
	baseline["errflow"]++

	// One allow site removed: the gate passes and reports the slack so
	// the baseline can shrink.
	baseline["iopath"]++
	grown, shrunk := checkDebt(counts, baseline)
	if len(grown) != 0 {
		t.Errorf("shrunken debt failed the gate: %v", grown)
	}
	if len(shrunk) != 1 || !strings.Contains(shrunk[0], "iopath") {
		t.Errorf("debt shrinkage not reported: shrunk=%v", shrunk)
	}
}

// TestDebtBaselineCurrent pins the checked-in baseline to the tree: the
// repository's own allow counts must equal dbvet.debt.json exactly, so
// debt can neither grow past it nor rot above the true count.
func TestDebtBaselineCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree load in -short mode")
	}
	prog, err := load.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	counts := anz.CountAllows(prog, analyzers)
	raw, err := os.ReadFile("../../dbvet.debt.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base debtStats
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	grown, shrunk := checkDebt(counts, base.AllowSites)
	for _, s := range grown {
		t.Errorf("suppression debt above checked-in baseline: %s", s)
	}
	for _, s := range shrunk {
		t.Errorf("checked-in baseline above actual debt (ratchet dbvet.debt.json): %s", s)
	}
	if got := newDebtStats(counts).Total; got != base.Total {
		t.Errorf("baseline total %d, actual %d", base.Total, got)
	}
}

// TestRepoTreeClean pins the acceptance criterion that dbvet exits zero
// over the repository: every real diagnostic is either fixed or carries
// a reasoned //dbvet:allow.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree load in -short mode")
	}
	diags := anztest.Diagnostics(t, "../..", "./...", analyzers...)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic in tree: %s", d)
	}
}
