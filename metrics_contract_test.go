package repro

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/shard"
	"repro/internal/tpcb"
	"repro/internal/wire"
)

// declaredOnly lists the obs/names.go constants that no run below
// reaches, each with the reason it stays declared.
var declaredOnly = map[string]string{
	"NameRecoveryParallelNS": "observed by nothing since the parallel apply went; cmd/bench still reads it",
	"NameCkptFallbacks":      "counted only when recovery falls back to the other ping-pong image after a bad one",
	"NameIOFaultOps":         "registered only by a FaultFS wired to a caller's registry (fault campaigns)",
	"NameIOFaultInjected":    "registered only by a FaultFS wired to a caller's registry (fault campaigns)",
	"NameIOFaultCrashes":     "registered only by a FaultFS wired to a caller's registry (fault campaigns)",
	"NameFaultWildWrites":    "registered only by a wild-write injector wired to a caller's registry",
	"NameFaultParityHits":    "registered only by a wild-write injector wired to a caller's registry",
	"NameBenchPairNS":        "registered only by benchtab's Table 1 measurement, on a private registry",
}

// TestMetricNameContract pins the metric namespace at run time. One seeded
// TPC-B run per protection kind (a checkpoint, an audit, a crash with a
// transaction in flight, restart recovery) and a 2-shard router serving
// one cross-shard commit over the wire collect every metric key the
// engine registers. Every key must be a constant declared in
// internal/obs/names.go, no key may be registered as two instrument kinds,
// and every declared constant must be reached by some run or be listed in
// declaredOnly — so a typo'd name, a kind clash and a metric that silently
// stops being registered all fail here.
func TestMetricNameContract(t *testing.T) {
	declared := declaredMetricNames(t) // value → constant name
	kinds := make(map[string]map[string]bool)
	collect := func(s obs.Snapshot) {
		note := func(name, kind string) {
			if kinds[name] == nil {
				kinds[name] = make(map[string]bool)
			}
			kinds[name][kind] = true
		}
		for name := range s.Counters {
			note(name, "counter")
		}
		for name := range s.Gauges {
			note(name, "gauge")
		}
		for name := range s.Histograms {
			note(name, "histogram")
		}
	}

	for k := protect.KindBaseline; k <= protect.KindDeferredCW; k++ {
		t.Run(k.String(), func(t *testing.T) {
			for _, s := range tpcbMetrics(t, k) {
				collect(s)
			}
		})
	}
	t.Run("wire-2shard", func(t *testing.T) {
		for _, s := range wireMetrics(t) {
			collect(s)
		}
	})
	if t.Failed() {
		return
	}

	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	reached := make(map[string]bool)
	for _, name := range names {
		cst, ok := declared[name]
		if !ok {
			t.Errorf("metric %q is not declared in internal/obs/names.go", name)
			continue
		}
		reached[cst] = true
		if len(kinds[name]) > 1 {
			t.Errorf("metric %q (obs.%s) is registered as more than one instrument kind: %v", name, cst, kinds[name])
		}
	}
	consts := make(map[string]bool, len(declared))
	for _, cst := range declared {
		consts[cst] = true
		_, only := declaredOnly[cst]
		switch {
		case !reached[cst] && !only:
			t.Errorf("obs.%s is declared but no run registers it; register it again or list it in declaredOnly", cst)
		case reached[cst] && only:
			t.Errorf("obs.%s is listed in declaredOnly but a run registers it", cst)
		}
	}
	for cst := range declaredOnly {
		if !consts[cst] {
			t.Errorf("declaredOnly names obs.%s, which names.go does not declare", cst)
		}
	}
}

// declaredMetricNames parses internal/obs/names.go and returns its string
// constants, value → constant name.
func declaredMetricNames(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "internal/obs/names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("names.go: %s is not a string literal constant", id.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				if prev, dup := out[v]; dup {
					t.Fatalf("names.go: %s and %s share the value %q", prev, id.Name, v)
				}
				out[v] = id.Name
			}
		}
	}
	return out
}

// tpcbMetrics drives one seeded TPC-B database under kind through a
// checkpoint, an audit and a crash with a transaction in flight, then
// restart recovery, and returns the snapshots before the crash and after
// recovery.
func tpcbMetrics(t *testing.T, kind protect.Kind) []obs.Snapshot {
	cfg := core.Config{
		Dir:       t.TempDir(),
		ArenaSize: tpcb.SmallScale.ArenaSize(),
		Protect:   protect.Config{Kind: kind, ForceSimProtect: true},
	}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tpcb.Setup(db, tpcb.SmallScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(200); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Audit(); err != nil {
		t.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Op(txn); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	db2, _, err := recovery.Open(cfg, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	return []obs.Snapshot{before, db2.Metrics()}
}

// wireMetrics serves a 2-shard router over a loopback wire server, commits
// one cross-shard transaction through a client, and returns the router's
// and every shard's snapshots.
func wireMetrics(t *testing.T) []obs.Snapshot {
	router, _, err := shard.Open(shard.Config{Dir: t.TempDir(), Shards: 2, ArenaSize: 1 << 18, ValueSize: 64, Capacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	srv := wire.NewServer(router, wire.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := map[int]uint64{}
	for k := uint64(1); len(keys) < 2; k++ {
		keys[router.ShardFor(k)] = k
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := c.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := router.Metrics()["router"].Counter(obs.NameShardCrossCommits); got != 1 {
		t.Fatalf("cross-shard commits = %d, want 1", got)
	}
	var out []obs.Snapshot
	for _, s := range router.Metrics() {
		out = append(out, s)
	}
	return out
}
