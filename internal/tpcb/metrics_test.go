package tpcb

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protect"
)

// TestConcurrentDriverMetrics runs the multi-client driver while snapshots
// are taken continuously and checks that the obs registry saw the run:
// group-commit batching, fsync timings, precheck traffic, lock waits. With
// -race (the make vet flow runs this package under the race detector) it
// doubles as the metrics-vs-engine concurrency test on a realistic
// workload.
func TestConcurrentDriverMetrics(t *testing.T) {
	cfg := core.Config{
		Dir:         t.TempDir(),
		ArenaSize:   SmallScale.ArenaSize(),
		Protect:     protect.Config{Kind: protect.KindPrecheck, RegionSize: 64},
		LockTimeout: 50 * time.Millisecond,
	}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	w, err := Setup(db, SmallScale, 33)
	if err != nil {
		t.Fatal(err)
	}

	base := db.Metrics()
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		// Snapshots race the engine on purpose (this is what -race checks);
		// individual values are atomic but counters are read at slightly
		// different instants, so cross-counter invariants are asserted only
		// after quiesce below.
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := db.Metrics()
			begun := s.Counter(obs.NameTxnsBegun)
			if begun < last {
				t.Errorf("txns_begun went backwards: %d -> %d", last, begun)
				return
			}
			last = begun
			_ = s.Histogram(obs.NameWALFsyncNS).Mean()
		}
	}()

	res, err := w.RunConcurrent(4, 200, 5)
	close(stop)
	<-snapDone
	if err != nil {
		t.Fatal(err)
	}

	s := db.Metrics().Sub(base)
	if got := s.Counter(obs.NameTxnsCommitted); got != uint64(res.TxnsCommitted) {
		t.Fatalf("committed counter %d, driver saw %d", got, res.TxnsCommitted)
	}
	if got := s.Counter(obs.NameTxnsAborted); got != uint64(res.TxnsAborted) {
		t.Fatalf("aborted counter %d, driver saw %d", got, res.TxnsAborted)
	}
	if s.Counter(obs.NamePrecheckRegions) == 0 {
		t.Fatal("prechecks never counted under the precheck scheme")
	}
	if s.Counter(obs.NameRegionFolds) == 0 {
		t.Fatal("codeword folds never counted")
	}

	// Histograms come from the full snapshot (Sub only differences
	// counters).
	full := db.Metrics()
	fsync := full.Histogram(obs.NameWALFsyncNS)
	if fsync.Count == 0 {
		t.Fatal("fsync histogram empty")
	}
	gc := full.Histogram(obs.NameWALGroupCommit)
	if gc.Count == 0 {
		t.Fatal("group-commit histogram empty")
	}
	// 4 clients committing every 5 ops: group commit should batch more
	// than one record per flush on average.
	if gc.Mean() <= 1 {
		t.Fatalf("group-commit mean %.2f, expected batching > 1", gc.Mean())
	}
	if res.TxnsAborted > 0 && full.Counter(obs.NameLockTimeouts) == 0 {
		t.Fatal("driver saw aborts but no lock timeouts were counted")
	}
	// Two instruments of one flush path must agree: every successful force
	// records one group-commit batch (no flush failed in this run).
	batches := gc.Count - base.Histogram(obs.NameWALGroupCommit).Count
	if got := full.Counter(obs.NameWALFlushes) - base.Counter(obs.NameWALFlushes); batches != got {
		t.Fatalf("group-commit histogram saw %d batches, flush counter says %d flushes", batches, got)
	}
}
