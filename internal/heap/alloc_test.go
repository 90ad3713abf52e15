package heap

import (
	"testing"

	"repro/internal/protect"
)

// TestUpdateAllocationBudget: a heap update in steady state — lock, op
// begin, update bracket with before/after images, logical-undo arguments,
// op commit moving four records to the log tail — stays within two heap
// allocations (in practice none: the slack is for a map or slab that has
// not reached its working size), with and without codeword maintenance.
func TestUpdateAllocationBudget(t *testing.T) {
	for _, kind := range []protect.Kind{protect.KindBaseline, protect.KindPrecheck} {
		t.Run(kind.String(), func(t *testing.T) {
			cat := testCatalog(t, protect.Config{Kind: kind})
			tb, err := cat.CreateTable("t", 100, 512)
			if err != nil {
				t.Fatal(err)
			}
			db := cat.DB()
			load, _ := db.Begin()
			for s := 0; s < tb.Cap; s++ {
				if err := tb.InsertAt(load, RID{Table: tb.ID, Slot: uint32(s)}, rec(tb, byte(s))); err != nil {
					t.Fatal(err)
				}
			}
			if err := load.Commit(); err != nil {
				t.Fatal(err)
			}

			txn, _ := db.Begin()
			var slot uint32
			var updErr error
			buf := []byte("8 bytes!")
			update := func() {
				slot = (slot + 37) % uint32(tb.Cap)
				if err := tb.Update(txn, RID{Table: tb.ID, Slot: slot}, 8, buf); err != nil {
					updErr = err
				}
			}
			for i := 0; i < 2*tb.Cap; i++ {
				update() // every slot locked, slabs and log tail at working size
			}
			allocs := testing.AllocsPerRun(500, update)
			if updErr != nil {
				t.Fatal(updErr)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			if allocs > 2 {
				t.Fatalf("%s: heap.Table.Update allocated %.1f times, budget 2", kind, allocs)
			}
			t.Logf("%s: %.1f allocations per update", kind, allocs)
		})
	}
}
