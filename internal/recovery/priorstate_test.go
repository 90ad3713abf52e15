package recovery

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/iofault"
	"repro/internal/protect"
	"repro/internal/wal"
)

func TestPriorStateDiscardsSuffix(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	db, tb := setupTable(t, cfg, 4)

	updateRec(t, db, tb, 0, []byte("before-mark"))
	mark := db.Internals().Log.End()
	updateRec(t, db, tb, 0, []byte("after-mark!"))
	updateRec(t, db, tb, 1, []byte("also-after"))
	db.Crash()

	db2, rep, err := PriorState(cfg, mark, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.CorruptionMode {
		t.Fatal("prior state ran corruption mode")
	}
	cat, _ := heap.Open(db2)
	tb2, _ := cat.Table("t")
	got := readRec(t, db2, tb2, 0)
	if string(got[:11]) != "before-mark" {
		t.Fatalf("record 0 = %q, want pre-mark value", got[:11])
	}
	if got := readRec(t, db2, tb2, 1); got[0] != 2 {
		t.Fatalf("record 1 = %v, want original fill 2", got[:4])
	}
	if err := db2.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestPriorStateCutsMidTransaction(t *testing.T) {
	// A transaction whose commit record falls past the cut must vanish
	// entirely (transaction consistency), even though some of its
	// operations' records precede the cut.
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	db, tb := setupTable(t, cfg, 4)

	txn, _ := db.Begin()
	if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: 0}, 0, []byte("op-one")); err != nil {
		t.Fatal(err)
	}
	// The op-commit record is in the log tail; flush so it is stable.
	if err := db.Internals().Log.Flush(); err != nil {
		t.Fatal(err)
	}
	mark := db.Internals().Log.End() // cut point: after op 1, before commit
	if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: 1}, 0, []byte("op-two")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	db2, _, err := PriorState(cfg, mark, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	cat, _ := heap.Open(db2)
	tb2, _ := cat.Table("t")
	if got := readRec(t, db2, tb2, 0); !bytes.Equal(got, bytes.Repeat([]byte{1}, 64)) {
		t.Fatalf("record 0 = %q: partial transaction survived prior-state recovery", got[:6])
	}
	if got := readRec(t, db2, tb2, 1); got[0] != 2 {
		t.Fatalf("record 1 = %v", got[:4])
	}
}

func TestPriorStateRejectsTargetBeforeCheckpoint(t *testing.T) {
	cfg := testConfig(t, protect.Config{})
	db, tb := setupTable(t, cfg, 2)
	mark := db.Internals().Log.End()
	updateRec(t, db, tb, 0, []byte("xx"))
	if err := db.Checkpoint(); err != nil { // CK_end now past mark
		t.Fatal(err)
	}
	db.Crash()
	if _, _, err := PriorState(cfg, mark, Options{}); err == nil {
		t.Fatal("prior state accepted a target older than the checkpoint")
	}
}

func TestBoundaryAtOrBefore(t *testing.T) {
	cfg := testConfig(t, protect.Config{})
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Internals().Log.Append(&wal.Record{Kind: wal.KindTxnBegin, Txn: 1})
	r2 := &wal.Record{Kind: wal.KindTxnCommit, Txn: 1}
	db.Internals().Log.Append(r2)
	db.Internals().Log.Flush()
	db.Close()

	// A target inside the second record cuts before it.
	cut, err := boundaryAtOrBefore(iofault.OS, cfg.Dir, r2.LSN+1)
	if err != nil {
		t.Fatal(err)
	}
	if cut != r2.LSN {
		t.Fatalf("cut = %d, want %d", cut, r2.LSN)
	}
	// A target at a boundary keeps the whole prefix.
	end := r2.LSN + wal.LSN(r2.EncodedSize())
	cut, err = boundaryAtOrBefore(iofault.OS, cfg.Dir, end)
	if err != nil {
		t.Fatal(err)
	}
	if cut != end {
		t.Fatalf("cut = %d, want %d", cut, end)
	}
	// Target zero cuts everything.
	cut, _ = boundaryAtOrBefore(iofault.OS, cfg.Dir, 0)
	if cut != 0 {
		t.Fatalf("cut = %d, want 0", cut)
	}
}

// TestPriorStateCutsBeforeFrame: a target inside a multi-record frame —
// one operation's op-begin, redo and op-commit, appended together — cuts
// before the whole frame. The transaction committed before it survives;
// the operation in the frame, and its transaction, are gone.
func TestPriorStateCutsBeforeFrame(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	db, tb := setupTable(t, cfg, 4)
	updateRec(t, db, tb, 0, []byte("committed"))
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: 1}, 0, []byte("in-frame")); err != nil {
		t.Fatal(err)
	}
	if err := db.Internals().Log.Flush(); err != nil {
		t.Fatal(err)
	}
	id := txn.ID()
	db.Crash()

	// The operation's frame: its op-begin starts it, its op-commit is inside.
	var frame, commit wal.LSN
	cur, err := wal.OpenCursor(iofault.OS, cfg.Dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
		if r := cur.Record(); r.Txn == id && r.Kind == wal.KindOpBegin {
			frame = r.LSN
		} else if r.Txn == id && r.Kind == wal.KindOpCommit {
			commit = r.LSN
		}
	}
	if err := cur.Err(); err != nil || commit <= frame || frame == 0 {
		t.Fatalf("op frame at %d, op-commit at %d: %v", frame, commit, err)
	}
	if cut, err := boundaryAtOrBefore(iofault.OS, cfg.Dir, commit+1); err != nil || cut != frame {
		t.Fatalf("cut = %d (%v), want the frame's start %d", cut, err, frame)
	}

	db2, _, err := PriorState(cfg, commit+1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	cat, _ := heap.Open(db2)
	tb2, _ := cat.Table("t")
	if got := readRec(t, db2, tb2, 0); string(got[:9]) != "committed" {
		t.Fatalf("record 0 = %q, want the update committed before the frame", got[:9])
	}
	if got := readRec(t, db2, tb2, 1); got[0] != 2 {
		t.Fatalf("record 1 = %v, want original fill 2", got[:4])
	}
}
