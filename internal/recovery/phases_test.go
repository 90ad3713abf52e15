package recovery

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/protect"
)

// TestPhasesAccountForOpen: the phases are contiguous, so they sum to the
// wall time of Open (within 5%: what precedes the first timestamp and
// follows the last is argument validation and a return — or a scheduler
// preemption there, which the 2 ms floor absorbs when Open itself takes
// only a few), and the recovered database's registry holds the same
// durations under recovery.*_ns.
func TestPhasesAccountForOpen(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	cfg.ArenaSize = 1 << 22
	db, tb := setupTable(t, cfg, 200)
	for round := 0; round < 40; round++ {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for s := uint32(0); s < 200; s++ {
			if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: s}, 0, bytes.Repeat([]byte{byte(round)}, 48)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	db2, rep, err := Open(cfg, Options{})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	p := rep.Phases
	if total := p.Total(); total > wall || wall-total > max(wall/20, 2*time.Millisecond) {
		t.Errorf("phases sum to %v, Open took %v: %+v", total, wall, p)
	}
	if p.LogOpen+p.Recompute > p.Build {
		t.Errorf("log open %v + recompute %v exceed build %v", p.LogOpen, p.Recompute, p.Build)
	}
	m := db2.Metrics()
	for name, want := range map[string]time.Duration{
		obs.NameRecoveryLoadNS: p.Load, obs.NameRecoveryScanNS: p.Scan, obs.NameRecoveryRedoNS: p.Redo,
		obs.NameRecoveryBuildNS: p.Build, obs.NameRecoveryLogOpenNS: p.LogOpen,
		obs.NameRecoveryRecomputeNS: p.Recompute, obs.NameRecoveryUndoNS: p.Undo,
		obs.NameRecoveryCheckpointNS: p.Checkpoint,
	} {
		if got := time.Duration(m.Histogram(name).Sum); got != want || (want != 0 && m.Histogram(name).Count == 0) {
			t.Errorf("%s holds %v, report says %v", name, got, want)
		}
	}
	for _, name := range []string{obs.NameRecoveryLoadNS, obs.NameRecoveryScanNS, obs.NameRecoveryRedoNS,
		obs.NameRecoveryBuildNS, obs.NameRecoveryLogOpenNS, obs.NameRecoveryRecomputeNS, obs.NameRecoveryCheckpointNS} {
		if m.Histogram(name).Sum == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}
