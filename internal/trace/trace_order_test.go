package trace

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/heap"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// TestTracePropagationMultiStream replays the canonical propagation
// scenario with the corruption seeded at a log position taken from the
// running database: the taint chain B→C is found only if the trace walks
// the log in order from that position, and A, which committed before it,
// stays clean.
func TestTracePropagationMultiStream(t *testing.T) {
	cfg := core.Config{Dir: t.TempDir(), ArenaSize: 1 << 19,
		Protect: protect.Config{Kind: protect.KindReadLog, RegionSize: 64}}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cat, _ := heap.Open(db)
	tb, err := cat.CreateTable("t", 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	setup, _ := db.Begin()
	for i := 0; i < 5; i++ {
		if _, err := tb.Insert(setup, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	ids := map[string]wal.TxnID{}
	update := func(name string, readSlot, writeSlot uint32) {
		txn, _ := db.Begin()
		if _, err := tb.Read(txn, heap.RID{Table: tb.ID, Slot: readSlot}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: writeSlot}, 0, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		ids[name] = txn.ID()
	}

	update("A", 0, 0)
	seedAt := db.Internals().Log.End() // corruption happens after this position
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 1)
	if _, err := inj.WildWrite(tb.RecordAddr(1)+16, []byte{0xBB}); err != nil {
		t.Fatal(err)
	}
	corrupt := recovery.Range{Start: tb.RecordAddr(1), Len: 128}
	update("B", 1, 2)
	update("C", 2, 3)
	update("D", 4, 4)
	if err := db.Internals().Log.Flush(); err != nil {
		t.Fatal(err)
	}

	res, err := Run(cfg.Dir, Options{SeedRanges: []recovery.Range{corrupt}, SeedAt: seedAt})
	if err != nil {
		t.Fatal(err)
	}
	taintedIDs := map[wal.TxnID]bool{}
	for _, tt := range res.Tainted {
		taintedIDs[tt.ID] = true
	}
	if !taintedIDs[ids["B"]] || !taintedIDs[ids["C"]] {
		t.Fatalf("carriers missing: %+v", res.Tainted)
	}
	if taintedIDs[ids["A"]] || taintedIDs[ids["D"]] {
		t.Fatalf("clean transactions tainted: %+v", res.Tainted)
	}
	if res.Generations[ids["B"]] != 1 || res.Generations[ids["C"]] != 2 {
		t.Fatalf("generations wrong: B=%d C=%d", res.Generations[ids["B"]], res.Generations[ids["C"]])
	}
	// Taint order is log order: B's reason position precedes C's, and both
	// follow the seed position.
	if len(res.Tainted) != 2 || res.Tainted[0].ID != ids["B"] || res.Tainted[0].Reason.LSN < seedAt ||
		res.Tainted[1].Reason.LSN <= res.Tainted[0].Reason.LSN {
		t.Fatalf("taint order is not log order from the seed: %+v", res.Tainted)
	}
}
