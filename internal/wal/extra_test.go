package wal

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/region"
)

func TestOpCommitCompensationRoundTrip(t *testing.T) {
	r := &Record{Kind: KindOpCommit, Txn: 9, Level: 1, Key: 77, Compensation: true,
		Undo: LogicalUndo{Op: 3, Key: 77, Args: []byte{1}}}
	got, _, err := decodeFrame(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Compensation {
		t.Fatal("compensation flag lost")
	}
	r.Compensation = false
	got, _, err = decodeFrame(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Compensation {
		t.Fatal("compensation flag invented")
	}
}

func TestUndoLogicalCommitLSNRoundTrip(t *testing.T) {
	entries := []*TxnEntry{{ID: 1, State: TxnActive, Undo: []UndoRec{
		{Kind: UndoLogical, Level: 1, Key: 5, CommitLSN: 123456789,
			Logical: LogicalUndo{Op: 2, Key: 5}},
	}}}
	got, err := DecodeEntries(EncodeEntries(entries))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Undo[0].CommitLSN != 123456789 {
		t.Fatalf("CommitLSN = %d", got[0].Undo[0].CommitLSN)
	}
}

func TestCommitCompensationOpErrors(t *testing.T) {
	e := &TxnEntry{ID: 1, State: TxnActive}
	if err := e.CommitCompensationOp(); err == nil {
		t.Fatal("compensation commit with empty log accepted")
	}
	e.PushOpBegin(1, 5)
	if err := e.CommitCompensationOp(); err == nil {
		t.Fatal("compensation commit with no logical undo beneath accepted")
	}
	// Proper shape: logical undo beneath the compensation's marker.
	e2 := &TxnEntry{ID: 2, State: TxnActive}
	e2.Undo = append(e2.Undo, UndoRec{Kind: UndoLogical, Level: 1, Key: 5,
		Logical: LogicalUndo{Op: 1, Key: 5}})
	e2.PushOpBegin(1, 5)
	e2.PushPhysUndo(0, []byte{1})
	if err := e2.CommitCompensationOp(); err != nil {
		t.Fatal(err)
	}
	if len(e2.Undo) != 0 {
		t.Fatalf("undo after compensation: %+v", e2.Undo)
	}
}

func TestEncodeEntriesPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var entries []*TxnEntry
		for i := 0; i < 1+rng.Intn(4); i++ {
			e := &TxnEntry{ID: TxnID(rng.Intn(1000)), State: TxnActive}
			for j := 0; j < rng.Intn(6); j++ {
				switch rng.Intn(3) {
				case 0:
					before := make([]byte, rng.Intn(20))
					rng.Read(before)
					e.Undo = append(e.Undo, UndoRec{Kind: UndoPhys,
						Addr: mem.Addr(rng.Intn(1 << 20)), Before: before,
						CodewordPending: rng.Intn(2) == 0})
				case 1:
					e.Undo = append(e.Undo, UndoRec{Kind: UndoOpBegin,
						Level: uint8(rng.Intn(3)), Key: ObjectKey(rng.Uint64())})
				case 2:
					args := make([]byte, rng.Intn(10))
					rng.Read(args)
					e.Undo = append(e.Undo, UndoRec{Kind: UndoLogical,
						Level: uint8(rng.Intn(3)), Key: ObjectKey(rng.Uint64()),
						CommitLSN: LSN(rng.Uint64() >> 20),
						Logical:   LogicalUndo{Op: uint8(rng.Intn(8)), Key: ObjectKey(rng.Uint64()), Args: args}})
				}
			}
			entries = append(entries, e)
		}
		got, err := DecodeEntries(EncodeEntries(entries))
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range entries {
			a, b := entries[i], got[i]
			if a.ID != b.ID || len(a.Undo) != len(b.Undo) {
				return false
			}
			for j := range a.Undo {
				u, v := a.Undo[j], b.Undo[j]
				if u.Kind != v.Kind || u.Addr != v.Addr || !bytes.Equal(u.Before, v.Before) ||
					u.CodewordPending != v.CodewordPending || u.Level != v.Level ||
					u.Key != v.Key || u.CommitLSN != v.CommitLSN ||
					u.Logical.Op != v.Logical.Op || u.Logical.Key != v.Logical.Key ||
					!bytes.Equal(u.Logical.Args, v.Logical.Args) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHasUndoForKeyAcrossKinds(t *testing.T) {
	e := &TxnEntry{ID: 1, State: TxnActive}
	e.PushOpBegin(1, 10)         // open op on 10
	e.PushPhysUndo(0, []byte{1}) // phys entries never match keys
	e.Undo = append(e.Undo, UndoRec{Kind: UndoLogical, Level: 1, Key: 20,
		Logical: LogicalUndo{Op: 1, Key: 20}})
	if !e.HasUndoForKey(10) {
		t.Fatal("open op key missed")
	}
	if !e.HasUndoForKey(20) {
		t.Fatal("logical undo key missed")
	}
	if e.HasUndoForKey(0) {
		t.Fatal("phys undo address matched as key")
	}
}

// TestRecordEncodedSizeMatchesForAllKinds is the property that lets
// EncodedSize be arithmetic: for every Kind, with and without a codeword,
// logical-undo args and a corrupt-range list, it equals the
// length of the frame Encode produces.
func TestRecordEncodedSizeMatchesForAllKinds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Shifting by a random amount spreads values over every varint width.
		u64 := func() uint64 { return rng.Uint64() >> uint(rng.Intn(64)) }
		for k := KindPhysRedo; k <= KindTxnDecision; k++ {
			r := &Record{
				Kind: k, Txn: TxnID(u64()), Addr: mem.Addr(u64()), Len: int(u64() >> 1),
				Level: uint8(rng.Intn(256)), Key: ObjectKey(u64()),
				Compensation: rng.Intn(2) == 0,
				Undo:         LogicalUndo{Op: uint8(rng.Intn(256)), Key: ObjectKey(u64())},
				AuditSN:      u64(), AuditClean: rng.Intn(2) == 0,
				GID: u64(), Decision: rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				r.Data = make([]byte, rng.Intn(300))
			}
			if rng.Intn(2) == 0 {
				r.Undo.Args = make([]byte, rng.Intn(300))
			}
			if rng.Intn(2) == 0 {
				r.HasCW, r.CW = true, region.Codeword(rng.Uint64())
			}
			for i := rng.Intn(4); i > 0; i-- {
				r.CorruptAddrs = append(r.CorruptAddrs, mem.Addr(u64()))
				r.CorruptLens = append(r.CorruptLens, rng.Uint32()>>uint(rng.Intn(32)))
			}
			if got, want := r.EncodedSize(), len(r.Encode(nil)); got != want {
				t.Logf("%v: EncodedSize %d, frame %d: %+v", k, got, want, r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
