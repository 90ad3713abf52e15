package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/protect"
)

const benchmarkPath = "../../BENCHMARK.json"

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := readJSON(benchmarkPath, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// timeShares are the modelled shares of a client's time; with the
// unattributed remainder they must account for all of it.
var timeShares = []string{"region.share", "protect.share", "heap.share", "lockmgr.share",
	"core.commit_share", "wal.share", "wire.share", "model.unattributed_share"}

func tinyCommon(t *testing.T) common {
	return common{seed: 7, seconds: refSeconds, workDir: t.TempDir()}
}

// checkEmitted asserts that got holds exactly the metrics of want, once
// each, with their units.
func checkEmitted(t *testing.T, got map[string]metric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, def := range want {
		m, ok := got[def.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", def.Name)
		case m.Unit != def.Unit:
			t.Errorf("metric %s emitted with unit %q, BENCHMARK.json says %q", def.Name, m.Unit, def.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", def.Name, m.Value)
		}
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmark(t)
	if b.RunSeconds != refSeconds {
		t.Errorf("run_seconds is %d, the window counts were frozen for %d", b.RunSeconds, refSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/bench" {
		t.Errorf("paths = %v, want [cmd/bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, def := range append(append([]metricDef{}, b.EndToEnd...), b.PerLayer...) {
		if !nameRE.MatchString(def.Name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", def.Name)
		}
		if seen[def.Name] {
			t.Errorf("metric %s named twice", def.Name)
		}
		seen[def.Name] = true
		if units[def.Name] != def.Unit {
			t.Errorf("metric %s: unit %q in BENCHMARK.json, %q in the harness", def.Name, def.Unit, units[def.Name])
		}
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("metric %s: better = %q", def.Name, def.Better)
		}
	}
	for _, def := range b.EndToEnd {
		if def.Bound < 0 || def.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", def.Name, def.Bound)
		}
		hasSetup = hasSetup || (def.Name == "setup_s" && def.Unit == "s" && def.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if len(seen) != len(units) {
		t.Errorf("BENCHMARK.json names %d metrics, the harness emits %d", len(seen), len(units))
	}
}

// TestSmoke runs every workload's untraced and traced pass (the latter
// with the layers pass) at a tiny scale, through the same code path as
// BENCHMARK.json's command.
func TestSmoke(t *testing.T) {
	b := loadBenchmark(t)
	for i := range workloads {
		sp := &workloads[i]
		t.Run(sp.name, func(t *testing.T) {
			c := tinyCommon(t)
			res, err := measureOne(sp, tinySizing, c, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkEmitted(t, res.Metrics, b.EndToEnd)
			for _, def := range b.EndToEnd {
				if res.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", def.Name, res.Metrics[def.Name].Value)
				}
			}

			c.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
			res, err = measureOne(sp, tinySizing, c, true)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res.Metrics, b.PerLayer)
			sum := 0.0
			for _, name := range timeShares {
				sum += res.Metrics[name].Value
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("modelled shares plus model.unattributed_share sum to %v, want 1", sum)
			}
			if sp.kind == protect.KindBaseline {
				for _, name := range []string{"region.share", "protect.share", "region.folds_per_op"} {
					if v := res.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %v under Baseline, want 0", name, v)
					}
				}
			}
			for name, m := range res.Metrics {
				if kvOnly(name) && !sp.kv && m.Value != 0 {
					t.Errorf("%s = %v on a workload that has no wire/shard/hashidx path", name, m.Value)
				}
			}
			if sp.kv && res.Metrics["wire.requests_per_txn"].Value != 10 {
				t.Errorf("wire.requests_per_txn = %v, want 10 (Begin + 4 x (Get, Put) + Commit)", res.Metrics["wire.requests_per_txn"].Value)
			}
			checkSpans(t, c.traceOut)
		})
	}
}

// checkSpans asserts the trace file holds parseable spans whose parents
// precede them.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp struct {
			ID, Parent int
			Name       string
			Start      int64 `json:"start_ns"`
			End        int64 `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line %d: %v", n, err)
		}
		if sp.Parent >= sp.ID || sp.End < sp.Start || sp.Name == "" {
			t.Fatalf("span line %d malformed: %s", n, sc.Text())
		}
		n++
	}
	if n == 0 {
		t.Error("traced pass wrote no spans")
	}
}

// TestDocumentAndCompare runs the document mode on two workloads and
// feeds the result to the comparator.
func TestDocumentAndCompare(t *testing.T) {
	b := loadBenchmark(t)
	c := tinyCommon(t)
	specs := []*spec{&workloads[0], &workloads[len(workloads)-1]}
	doc, err := measureAll(specs, tinySizing, c, readEnv(c.workDir, c.seed))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range doc.Rows {
		key := r.Workload + "/" + r.Metric
		if seen[key] {
			t.Errorf("row %s emitted twice", key)
		}
		seen[key] = true
		if r.Unit != units[r.Metric] || r.N < 1 || r.Q1 > r.Median || r.Median > r.Q3 {
			t.Errorf("row %+v: bad unit, n or quartile order", r)
		}
		if (r.Layer == "e2e") == strings.Contains(r.Metric, ".") {
			t.Errorf("row %s has layer %q", key, r.Layer)
		}
		if kvOnly(r.Metric) && r.Workload != "kv_wire" {
			t.Errorf("row %s: wire/shard/hashidx rows exist only for kv_wire", key)
		}
	}
	for _, sp := range specs {
		for _, def := range b.EndToEnd {
			if !seen[sp.name+"/"+def.Name] {
				t.Errorf("no end-to-end row %s/%s", sp.name, def.Name)
			}
		}
		for _, def := range b.PerLayer {
			if !seen[sp.name+"/"+def.Name] && (sp.kv || !kvOnly(def.Name)) {
				t.Errorf("no per-layer row %s/%s", sp.name, def.Name)
			}
		}
	}
	line, err := json.Marshal(doc.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(line), `"claim":null}`) {
		t.Errorf("summary line %s does not end with \"claim\": null", line)
	}

	// compare: a document agrees with itself; a halved throughput is a
	// regression and fails the command.
	dir := t.TempDir()
	write := func(name string, d *document) string {
		body, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", doc)
	if err := cmdCompare([]string{"-spec", benchmarkPath, a, a}); err != nil {
		t.Errorf("a document compared with itself: %v", err)
	}
	for i := range doc.Rows {
		if doc.Rows[i].Metric == "ops_per_s" {
			doc.Rows[i].Median /= 2
		}
	}
	if err := cmdCompare([]string{"-spec", benchmarkPath, a, write("b.json", doc)}); err == nil {
		t.Error("halved ops_per_s was not reported as a regression")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for the same inputs.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestTmpfsWorkDirRefused(t *testing.T) {
	const shm = "/dev/shm"
	if filesystemOf(shm) != "tmpfs" {
		t.Skip("no tmpfs at " + shm)
	}
	dir, err := os.MkdirTemp(shm, "bench-test-")
	if err != nil {
		t.Skip(err)
	}
	defer os.RemoveAll(dir)
	c := common{seed: 1, seconds: 1, workDir: dir}
	if _, cleanup, err := c.prepare(); err == nil {
		cleanup()
		t.Error("a work dir on tmpfs was accepted without -allow-tmpfs")
	}
	c = common{seed: 1, seconds: 1, workDir: dir, allowTmpfs: true}
	_, cleanup, err := c.prepare()
	if err != nil {
		t.Fatalf("-allow-tmpfs: %v", err)
	}
	cleanup()
}
