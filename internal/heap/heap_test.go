package heap

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/protect"
	"repro/internal/wal"
)

func testCatalog(t *testing.T, pc protect.Config) *Catalog {
	t.Helper()
	db, err := core.Open(core.Config{
		Dir:       t.TempDir(),
		ArenaSize: 1 << 20,
		Protect:   pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cat, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func rec(t *Table, fill byte) []byte {
	b := make([]byte, t.RecSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestCreateTableAndLookup(t *testing.T) {
	cat := testCatalog(t, protect.Config{})
	tb, err := cat.CreateTable("account", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != 1 || tb.RecSize != 100 || tb.Cap != 1000 {
		t.Fatalf("table: %+v", tb)
	}
	if _, err := cat.CreateTable("account", 100, 10); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	got, err := cat.Table("account")
	if err != nil || got != tb {
		t.Fatalf("lookup: %v", err)
	}
	if _, err := cat.Table("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing lookup: %v", err)
	}
	byID, err := cat.TableByID(1)
	if err != nil || byID != tb {
		t.Fatalf("lookup by id: %v", err)
	}
	if len(cat.Tables()) != 1 {
		t.Fatal("Tables() wrong")
	}
}

func TestCreateTableValidation(t *testing.T) {
	cat := testCatalog(t, protect.Config{})
	if _, err := cat.CreateTable("t", 0, 10); err == nil {
		t.Fatal("zero record size accepted")
	}
	if _, err := cat.CreateTable("t", 10, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	// Exhaust the arena.
	if _, err := cat.CreateTable("huge", 100, 10_000_000); err == nil {
		t.Fatal("oversized table accepted")
	}
}

func TestCatalogPersistRoundTrip(t *testing.T) {
	cat := testCatalog(t, protect.Config{})
	tb, err := cat.CreateTable("teller", 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := cat.db.Meta("heap.catalog")
	if !ok {
		t.Fatal("catalog not persisted")
	}
	cat2 := &Catalog{db: cat.db, byName: map[string]*Table{}, byID: map[uint32]*Table{}}
	if err := cat2.decode(blob); err != nil {
		t.Fatal(err)
	}
	tb2 := cat2.byName["teller"]
	if tb2 == nil || tb2.ID != tb.ID || tb2.RecSize != tb.RecSize || tb2.Cap != tb.Cap ||
		tb2.dataFirst != tb.dataFirst || tb2.allocFirst != tb.allocFirst {
		t.Fatalf("decoded table %+v != %+v", tb2, tb)
	}
	if cat2.nextID != cat.nextID {
		t.Fatal("nextID lost")
	}
	// Corrupt catalog rejected.
	if err := (&Catalog{db: cat.db, byName: map[string]*Table{}, byID: map[uint32]*Table{}}).decode(blob[:3]); err == nil {
		t.Fatal("truncated catalog accepted")
	}
}

func TestInsertReadDelete(t *testing.T) {
	cat := testCatalog(t, protect.Config{Kind: protect.KindReadLog, RegionSize: 64})
	tb, err := cat.CreateTable("t", 64, 100)
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := cat.db.Begin()
	rid, err := tb.Insert(txn, rec(tb, 0xAA))
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Allocated(rid.Slot) {
		t.Fatal("slot not allocated after insert")
	}
	got, err := tb.Read(txn, rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec(tb, 0xAA)) {
		t.Fatal("read wrong data")
	}
	part, err := tb.ReadAt(txn, rid, 10, 4)
	if err != nil || len(part) != 4 || part[0] != 0xAA {
		t.Fatalf("ReadAt: %v %v", part, err)
	}
	if err := tb.Delete(txn, rid); err != nil {
		t.Fatal(err)
	}
	if tb.Allocated(rid.Slot) {
		t.Fatal("slot still allocated after delete")
	}
	if _, err := tb.Read(txn, rid); !errors.Is(err, ErrSlotFree) {
		t.Fatalf("read of deleted record: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := cat.db.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestUpdateField(t *testing.T) {
	cat := testCatalog(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64})
	tb, _ := cat.CreateTable("t", 100, 10)
	txn, _ := cat.db.Begin()
	rid, err := tb.Insert(txn, rec(tb, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(txn, rid, 20, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	got, _ := tb.Read(txn, rid)
	if got[19] != 1 || got[20] != 9 || got[23] != 9 || got[24] != 1 {
		t.Fatalf("update window wrong: %v", got[18:26])
	}
	txn.Commit()
	if err := cat.db.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateValidation(t *testing.T) {
	cat := testCatalog(t, protect.Config{})
	tb, _ := cat.CreateTable("t", 32, 10)
	txn, _ := cat.db.Begin()
	rid, _ := tb.Insert(txn, rec(tb, 1))
	if err := tb.Update(txn, rid, 30, []byte{1, 2, 3}); err == nil {
		t.Fatal("out-of-record update accepted")
	}
	if err := tb.Update(txn, RID{Table: 99, Slot: 0}, 0, []byte{1}); err == nil {
		t.Fatal("foreign rid accepted")
	}
	if err := tb.Update(txn, RID{Table: tb.ID, Slot: 5}, 0, []byte{1}); !errors.Is(err, ErrSlotFree) {
		t.Fatalf("update of free slot: %v", err)
	}
	txn.Commit()
}

func TestInsertWrongSize(t *testing.T) {
	cat := testCatalog(t, protect.Config{})
	tb, _ := cat.CreateTable("t", 32, 10)
	txn, _ := cat.db.Begin()
	if _, err := tb.Insert(txn, make([]byte, 31)); !errors.Is(err, ErrBadRecordSize) {
		t.Fatalf("wrong-size insert: %v", err)
	}
	txn.Commit()
}

func TestTableFull(t *testing.T) {
	cat := testCatalog(t, protect.Config{})
	tb, _ := cat.CreateTable("t", 16, 4)
	txn, _ := cat.db.Begin()
	for i := 0; i < 4; i++ {
		if _, err := tb.Insert(txn, rec(tb, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Insert(txn, rec(tb, 9)); !errors.Is(err, ErrTableFull) {
		t.Fatalf("overfull insert: %v", err)
	}
	// Delete one, insert succeeds again (slot reuse).
	if err := tb.Delete(txn, RID{Table: tb.ID, Slot: 2}); err != nil {
		t.Fatal(err)
	}
	rid, err := tb.Insert(txn, rec(tb, 9))
	if err != nil {
		t.Fatal(err)
	}
	if rid.Slot != 2 {
		t.Fatalf("freed slot not reused: got %d", rid.Slot)
	}
	txn.Commit()
}

func TestInsertAt(t *testing.T) {
	cat := testCatalog(t, protect.Config{})
	tb, _ := cat.CreateTable("t", 16, 10)
	txn, _ := cat.db.Begin()
	rid := RID{Table: tb.ID, Slot: 7}
	if err := tb.InsertAt(txn, rid, rec(tb, 3)); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertAt(txn, rid, rec(tb, 4)); !errors.Is(err, ErrSlotOccupied) {
		t.Fatalf("double InsertAt: %v", err)
	}
	if err := tb.InsertAt(txn, RID{Table: tb.ID, Slot: 100}, rec(tb, 1)); err == nil {
		t.Fatal("out-of-range InsertAt accepted")
	}
	got, _ := tb.Read(txn, rid)
	if got[0] != 3 {
		t.Fatal("InsertAt data wrong")
	}
	txn.Commit()
}

func TestAbortUndoesInsertUpdateDelete(t *testing.T) {
	cat := testCatalog(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	tb, _ := cat.CreateTable("t", 64, 100)

	// Base state: one committed record.
	txn, _ := cat.db.Begin()
	base, err := tb.Insert(txn, rec(tb, 0x11))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// A transaction inserts, updates the base record, deletes the base
	// record... then aborts. Everything must roll back.
	txn2, _ := cat.db.Begin()
	extra, err := tb.Insert(txn2, rec(tb, 0x22))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(txn2, base, 0, []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Delete(txn2, base); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Abort(); err != nil {
		t.Fatal(err)
	}

	if tb.Allocated(extra.Slot) {
		t.Fatal("aborted insert survived")
	}
	if !tb.Allocated(base.Slot) {
		t.Fatal("aborted delete not undone")
	}
	txn3, _ := cat.db.Begin()
	got, err := tb.Read(txn3, base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec(tb, 0x11)) {
		t.Fatalf("base record after abort: %x...", got[:4])
	}
	txn3.Commit()
	if err := cat.db.Audit(); err != nil {
		t.Fatalf("audit after rollbacks: %v", err)
	}
}

func TestScanAndCount(t *testing.T) {
	cat := testCatalog(t, protect.Config{})
	tb, _ := cat.CreateTable("t", 16, 50)
	txn, _ := cat.db.Begin()
	want := map[uint32]byte{}
	for i := 0; i < 10; i++ {
		rid, err := tb.Insert(txn, rec(tb, byte(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		want[rid.Slot] = byte(i + 1)
	}
	txn.Commit()
	if tb.Count() != 10 {
		t.Fatalf("count = %d", tb.Count())
	}
	seen := 0
	tb.Scan(func(rid RID, r []byte) bool {
		if want[rid.Slot] != r[0] {
			t.Errorf("slot %d holds %d, want %d", rid.Slot, r[0], want[rid.Slot])
		}
		seen++
		return true
	})
	if seen != 10 {
		t.Fatalf("scan visited %d", seen)
	}
	// Early stop.
	seen = 0
	tb.Scan(func(RID, []byte) bool { seen++; return false })
	if seen != 1 {
		t.Fatalf("scan did not stop early: %d", seen)
	}
}

func TestRIDKeyRoundTrip(t *testing.T) {
	r := RID{Table: 0xDEAD, Slot: 0xBEEF}
	if RIDFromKey(r.Key()) != r {
		t.Fatal("RID key roundtrip failed")
	}
	if r.String() == "" {
		t.Fatal("empty RID string")
	}
}

func TestConcurrentInsertsDistinctSlots(t *testing.T) {
	cat := testCatalog(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 512})
	tb, _ := cat.CreateTable("t", 64, 1000)
	var mu sync.Mutex
	slots := map[uint32]int{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn, err := cat.db.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				rid, err := tb.Insert(txn, rec(tb, byte(g)))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				slots[rid.Slot]++
				mu.Unlock()
			}
			if err := txn.Commit(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if len(slots) != 400 {
		t.Fatalf("distinct slots = %d, want 400", len(slots))
	}
	for s, n := range slots {
		if n != 1 {
			t.Fatalf("slot %d allocated %d times", s, n)
		}
	}
	if tb.Count() != 400 {
		t.Fatalf("count = %d", tb.Count())
	}
	if err := cat.db.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestOpsAppearInLog(t *testing.T) {
	cat := testCatalog(t, protect.Config{Kind: protect.KindReadLog, RegionSize: 64})
	tb, _ := cat.CreateTable("t", 64, 10)
	txn, _ := cat.db.Begin()
	rid, _ := tb.Insert(txn, rec(tb, 5))
	tb.Read(txn, rid)
	tb.Update(txn, rid, 0, []byte{7})
	txn.Commit()
	cat.db.Close()

	counts := map[wal.Kind]int{}
	cur, err := wal.OpenCursor(iofault.OS, cat.db.Config().Dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
		counts[cur.Record().Kind]++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	// Insert: op-begin + 2 phys (bit, record) + op-commit.
	// Read: 1 read record. Update: op-begin + 1 phys + op-commit.
	if counts[wal.KindOpBegin] != 2 || counts[wal.KindOpCommit] != 2 {
		t.Fatalf("op records: %v", counts)
	}
	if counts[wal.KindPhysRedo] != 3 {
		t.Fatalf("phys records: %v", counts)
	}
	if counts[wal.KindRead] != 1 {
		t.Fatalf("read records: %v", counts)
	}
	if counts[wal.KindTxnCommit] != 1 {
		t.Fatalf("commit records: %v", counts)
	}
}

func TestOpenReturnsSameCatalog(t *testing.T) {
	cat := testCatalog(t, protect.Config{})
	again, err := Open(cat.db)
	if err != nil {
		t.Fatal(err)
	}
	if again != cat {
		t.Fatal("Open returned a different catalog instance")
	}
}

func TestConcurrentBitmapByteNeighbors(t *testing.T) {
	// Regression: eight slots share one allocation-bitmap byte, so two
	// transactions inserting/deleting NEIGHBORING records perform
	// read-modify-writes on the same byte while holding only shared
	// protection latches. Without the table's bitmap mutex one bit update
	// is lost and the codeword audit fails.
	cat := testCatalog(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 512})
	tb, err := cat.CreateTable("t", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-populate even slots; workers toggle odd slots around them.
	setup, _ := cat.db.Begin()
	for s := uint32(0); s < 16; s += 2 {
		if err := tb.InsertAt(setup, RID{Table: tb.ID, Slot: s}, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	setup.Commit()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slot := uint32(g*2 + 1) // odd slots 1,3,5,7: same bitmap byte
			for i := 0; i < 300; i++ {
				txn, err := cat.db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				rid := RID{Table: tb.ID, Slot: slot}
				if err := tb.InsertAt(txn, rid, make([]byte, 64)); err != nil {
					t.Error(err)
					txn.Abort()
					return
				}
				if err := tb.Delete(txn, rid); err != nil {
					t.Error(err)
					txn.Abort()
					return
				}
				// Half the transactions abort: rollback re-inserts and
				// re-deletes through the undo handlers, doubling the
				// contended bitmap traffic.
				if i%2 == 0 {
					if err := txn.Abort(); err != nil {
						t.Error(err)
						return
					}
				} else if err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := cat.db.Audit(); err != nil {
		t.Fatalf("audit after contended bitmap traffic: %v", err)
	}
	if got := tb.Count(); got != 8 {
		t.Fatalf("count = %d, want the 8 pre-populated records", got)
	}
}
