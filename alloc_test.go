package repro

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/protect"
)

// TestTPCBOpMallocBudget holds one full TPC-B operation — three reads,
// three balance updates, a history delete and a history insert, the shape
// cmd/bench drives — to a heap-allocation budget in steady state, counted
// from runtime.MemStats over whole transactions (begin and commit
// included). The three reads return copies by contract, so three of the
// mallocs are the API's; the budget leaves the engine itself close to
// none. Before the transaction path stopped allocating per record, per
// image and per lock, this loop measured 99 mallocs per operation under
// Baseline and 114 under Precheck.
func TestTPCBOpMallocBudget(t *testing.T) {
	const (
		budget    = 25
		recSize   = 100
		offBal    = 8
		accounts  = 2000
		histCap   = 256
		opsPerTxn = 100
		txns      = 20
	)
	for _, kind := range []protect.Kind{protect.KindBaseline, protect.KindPrecheck} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := core.Config{Dir: t.TempDir(), ArenaSize: 1 << 20}
			cfg.Protect.Kind = kind
			db, err := core.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			cat, err := heap.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			acct, err := cat.CreateTable("account", recSize, accounts)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := cat.CreateTable("history", recSize, histCap)
			if err != nil {
				t.Fatal(err)
			}
			rec := make([]byte, recSize)
			load, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < accounts; i++ {
				if err := acct.InsertAt(load, heap.RID{Table: acct.ID, Slot: uint32(i)}, rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := load.Commit(); err != nil {
				t.Fatal(err)
			}

			var seq uint64
			op := func(txn *core.Txn) {
				for k := uint64(0); k < 3; k++ {
					rid := heap.RID{Table: acct.ID, Slot: uint32((seq*7 + k*613) % accounts)}
					cur, err := acct.Read(txn, rid)
					if err != nil {
						t.Fatal(err)
					}
					var buf [8]byte
					binary.LittleEndian.PutUint64(buf[:], binary.LittleEndian.Uint64(cur[offBal:])+1)
					if err := acct.Update(txn, rid, offBal, buf[:]); err != nil {
						t.Fatal(err)
					}
				}
				rid := heap.RID{Table: hist.ID, Slot: uint32(seq % histCap)}
				if seq >= histCap {
					if err := hist.Delete(txn, rid); err != nil {
						t.Fatal(err)
					}
				}
				var h [recSize]byte
				binary.LittleEndian.PutUint64(h[:], seq)
				if err := hist.InsertAt(txn, rid, h[:]); err != nil {
					t.Fatal(err)
				}
				seq++
			}
			run := func(n int) {
				for i := 0; i < n; i++ {
					txn, err := db.Begin()
					if err != nil {
						t.Fatal(err)
					}
					for j := 0; j < opsPerTxn; j++ {
						op(txn)
					}
					if err := txn.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Fill the history ring (so every measured op pays the delete)
			// and let every pool, slab and map reach its steady size.
			run(2*histCap/opsPerTxn + 3)

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			run(txns)
			runtime.ReadMemStats(&after)
			perOp := float64(after.Mallocs-before.Mallocs) / float64(txns*opsPerTxn)
			t.Logf("%s: %.1f mallocs and %.0f bytes per TPC-B operation",
				kind, perOp, float64(after.TotalAlloc-before.TotalAlloc)/float64(txns*opsPerTxn))
			if perOp > budget {
				t.Errorf("%s: %.1f mallocs per TPC-B operation, budget %d", kind, perOp, budget)
			}
			if err := db.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
