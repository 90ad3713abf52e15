package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/region"
)

func sampleRecords() []*Record {
	return []*Record{
		{Kind: KindPhysRedo, Txn: 7, Addr: 1234, Data: []byte{1, 2, 3}},
		{Kind: KindPhysRedo, Txn: 7, Addr: 0, Data: nil},
		{Kind: KindPhysRedo, Txn: 9, Addr: 55, Data: []byte{9}, HasCW: true, CW: 0xdeadbeef},
		{Kind: KindRead, Txn: 3, Addr: 100, Len: 64},
		{Kind: KindRead, Txn: 3, Addr: 100, Len: 64, HasCW: true, CW: 42},
		{Kind: KindOpBegin, Txn: 4, Level: 1, Key: 0xABCD},
		{Kind: KindOpCommit, Txn: 4, Level: 1, Key: 0xABCD,
			Undo: LogicalUndo{Op: 2, Key: 0xABCD, Args: []byte{5, 6}}},
		{Kind: KindOpCommit, Txn: 4, Level: 2, Key: 1, Undo: LogicalUndo{Op: 1, Key: 1}},
		{Kind: KindTxnBegin, Txn: 11},
		{Kind: KindTxnCommit, Txn: 11},
		{Kind: KindTxnAbort, Txn: 12},
		{Kind: KindTxnPrepare, Txn: 13, GID: 0x0001_0000_0000_000d},
		{Kind: KindTxnDecision, Txn: 13, GID: 0x0001_0000_0000_000d, Decision: true},
		{Kind: KindTxnDecision, Txn: 14, GID: 0x7fff_ffff_ffff_ffff, Decision: false},
		{Kind: KindAuditBegin, Txn: 0, AuditSN: 17},
		{Kind: KindAuditEnd, Txn: 0, AuditSN: 17, AuditClean: true},
		{Kind: KindAuditEnd, Txn: 0, AuditSN: 18, AuditClean: false,
			CorruptAddrs: []mem.Addr{64, 512}, CorruptLens: []uint32{64, 64}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, r := range sampleRecords() {
		enc := r.Encode(nil)
		if len(enc) != r.EncodedSize() {
			t.Errorf("record %d (%v): EncodedSize %d != actual %d", i, r.Kind, r.EncodedSize(), len(enc))
		}
		got, n, err := decodeFrame(enc)
		if err != nil {
			t.Fatalf("record %d (%v): decode: %v", i, r.Kind, err)
		}
		if n != len(enc) {
			t.Errorf("record %d: consumed %d of %d bytes", i, n, len(enc))
		}
		// Normalize empty slices for comparison.
		norm := func(r *Record) {
			if len(r.Data) == 0 {
				r.Data = nil
			}
			if len(r.Undo.Args) == 0 {
				r.Undo.Args = nil
			}
		}
		norm(got)
		cp := *r
		norm(&cp)
		if !reflect.DeepEqual(got, &cp) {
			t.Errorf("record %d roundtrip mismatch:\n got %+v\nwant %+v", i, got, &cp)
		}
	}
}

func TestRecordKindString(t *testing.T) {
	if KindPhysRedo.String() != "phys-redo" {
		t.Fatal("kind name wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must stringify")
	}
}

func TestDecodeFrameTorn(t *testing.T) {
	r := &Record{Kind: KindPhysRedo, Txn: 1, Addr: 10, Data: []byte{1, 2, 3, 4}}
	enc := r.Encode(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := decodeFrame(enc[:cut]); !errors.Is(err, ErrTornRecord) {
			t.Fatalf("truncated at %d: err = %v, want ErrTornRecord", cut, err)
		}
	}
}

func TestDecodeFrameCorruptPayload(t *testing.T) {
	r := &Record{Kind: KindPhysRedo, Txn: 1, Addr: 10, Data: []byte{1, 2, 3, 4}}
	enc := r.Encode(nil)
	for i := FrameHeaderSize; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xFF
		if _, _, err := decodeFrame(bad); err == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}
}

func TestDecodeFrameUnknownKind(t *testing.T) {
	// Build a frame with a bogus kind byte and a valid checksum.
	r := &Record{Kind: KindTxnBegin, Txn: 1}
	enc := r.Encode(nil)
	// Kind 15 fits the tag's kind bits but names no kind.
	bad := &Record{Kind: Kind(15), Txn: 1}
	enc = bad.Encode(nil)
	if _, _, err := decodeFrame(enc); err == nil {
		t.Fatal("unknown kind accepted")
	}
	_ = r
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(txn uint64, addr uint32, data []byte, hasCW bool, cw uint64) bool {
		r := &Record{Kind: KindPhysRedo, Txn: TxnID(txn), Addr: mem.Addr(addr),
			Data: data, HasCW: hasCW, CW: region.Codeword(cw)}
		got, _, err := decodeFrame(r.Encode(nil))
		if err != nil {
			return false
		}
		return got.Txn == r.Txn && got.Addr == r.Addr && bytes.Equal(got.Data, r.Data) &&
			got.HasCW == r.HasCW && (!hasCW || got.CW == r.CW)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRecordStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var stream []byte
	var want []*Record
	for i := 0; i < 200; i++ {
		data := make([]byte, rng.Intn(50))
		rng.Read(data)
		r := &Record{Kind: KindPhysRedo, Txn: TxnID(i), Addr: mem.Addr(rng.Intn(10000)), Data: data}
		want = append(want, r)
		stream = r.Encode(stream)
	}
	pos, idx := 0, 0
	for pos < len(stream) {
		r, n, err := decodeFrame(stream[pos:])
		if err != nil {
			t.Fatalf("decode at %d: %v", pos, err)
		}
		if r.Txn != want[idx].Txn || !bytes.Equal(r.Data, want[idx].Data) {
			t.Fatalf("record %d mismatch", idx)
		}
		pos += n
		idx++
	}
	if idx != len(want) {
		t.Fatalf("decoded %d records, want %d", idx, len(want))
	}
}

func TestEncodeEntriesRoundTrip(t *testing.T) {
	entries := []*TxnEntry{
		{ID: 1, State: TxnActive, Undo: []UndoRec{
			{Kind: UndoOpBegin, Level: 1, Key: 77},
			{Kind: UndoPhys, Addr: 128, Before: []byte{1, 2, 3}, CodewordPending: true},
			{Kind: UndoPhys, Addr: 4096, Before: []byte{4}, CodewordPending: false},
		}},
		{ID: 2, State: TxnActive, Undo: []UndoRec{
			{Kind: UndoLogical, Level: 1, Key: 88,
				Logical: LogicalUndo{Op: 3, Key: 88, Args: []byte{9, 9}}},
		}},
		{ID: 3, State: TxnActive},
		{ID: 4, State: TxnPrepared, GID: 0x0002_0000_0000_0004, Undo: []UndoRec{
			{Kind: UndoPhys, Addr: 256, Before: []byte{7, 7}},
		}},
	}
	got, err := DecodeEntries(EncodeEntries(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i].ID != entries[i].ID || got[i].State != entries[i].State || got[i].GID != entries[i].GID {
			t.Fatalf("entry %d header mismatch", i)
		}
		if len(got[i].Undo) != len(entries[i].Undo) {
			t.Fatalf("entry %d undo count mismatch", i)
		}
		for j := range entries[i].Undo {
			a, b := got[i].Undo[j], entries[i].Undo[j]
			if a.Kind != b.Kind || a.Addr != b.Addr || !bytes.Equal(a.Before, b.Before) ||
				a.CodewordPending != b.CodewordPending || a.Level != b.Level || a.Key != b.Key ||
				a.Logical.Op != b.Logical.Op || a.Logical.Key != b.Logical.Key ||
				!bytes.Equal(a.Logical.Args, b.Logical.Args) {
				t.Fatalf("entry %d undo %d mismatch: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

func TestDecodeEntriesRejectsGarbage(t *testing.T) {
	if _, err := DecodeEntries([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("garbage accepted")
	}
	enc := EncodeEntries([]*TxnEntry{{ID: 1, State: TxnActive,
		Undo: []UndoRec{{Kind: UndoPhys, Addr: 1, Before: []byte{1}}}}})
	if _, err := DecodeEntries(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated entries accepted")
	}
}

func TestTxnEntryOpLifecycle(t *testing.T) {
	e := &TxnEntry{ID: 1, State: TxnActive}
	if e.InOperation() {
		t.Fatal("fresh entry claims open operation")
	}
	e.PushOpBegin(1, 10)
	if !e.InOperation() {
		t.Fatal("operation not open after PushOpBegin")
	}
	u := e.PushPhysUndo(100, []byte{1, 2})
	if !u.CodewordPending {
		t.Fatal("fresh phys undo must have codeword pending")
	}
	u.CodewordPending = false // endUpdate
	e.PushPhysUndo(200, []byte{3})
	if err := e.CommitOp(1, 10, LogicalUndo{Op: 1, Key: 10}, 5); err != nil {
		t.Fatal(err)
	}
	if e.InOperation() {
		t.Fatal("operation still open after CommitOp")
	}
	if len(e.Undo) != 1 || e.Undo[0].Kind != UndoLogical {
		t.Fatalf("undo log after op commit: %+v", e.Undo)
	}
	if !e.HasUndoForKey(10) {
		t.Fatal("HasUndoForKey missed committed op")
	}
	if e.HasUndoForKey(11) {
		t.Fatal("HasUndoForKey false positive")
	}
	if err := e.CommitOp(1, 10, LogicalUndo{}, 6); err == nil {
		t.Fatal("CommitOp with no open operation accepted")
	}
}

func TestTxnEntryNestedOps(t *testing.T) {
	e := &TxnEntry{ID: 1, State: TxnActive}
	e.PushOpBegin(2, 1)
	e.PushOpBegin(1, 2)
	e.PushPhysUndo(0, []byte{1})
	if err := e.CommitOp(1, 2, LogicalUndo{Op: 1, Key: 2}, 7); err != nil {
		t.Fatal(err)
	}
	// Outer op still open; its marker remains below the logical undo.
	if !e.InOperation() {
		t.Fatal("outer operation lost")
	}
	if err := e.CommitOp(2, 1, LogicalUndo{Op: 2, Key: 1}, 8); err != nil {
		t.Fatal(err)
	}
	if len(e.Undo) != 1 {
		t.Fatalf("undo log = %+v", e.Undo)
	}
}

func TestATTLifecycle(t *testing.T) {
	att := NewATT(0)
	e1 := att.Begin()
	e2 := att.Begin()
	if e1.ID == e2.ID {
		t.Fatal("duplicate transaction IDs")
	}
	if att.Len() != 2 {
		t.Fatalf("len = %d", att.Len())
	}
	if att.Lookup(e1.ID) != e1 {
		t.Fatal("lookup failed")
	}
	act := att.Active()
	if len(act) != 2 || act[0].ID > act[1].ID {
		t.Fatal("Active not sorted")
	}
	att.Remove(e1.ID)
	if att.Lookup(e1.ID) != nil {
		t.Fatal("removed entry still present")
	}
	att.Attach(&TxnEntry{ID: 100, State: TxnActive})
	if att.NextID() != 101 {
		t.Fatalf("NextID = %d, want 101 after attaching ID 100", att.NextID())
	}
}

func TestATTSnapshotIsDeep(t *testing.T) {
	att := NewATT(1)
	e := att.Begin()
	e.PushOpBegin(1, 5)
	e.PushPhysUndo(10, []byte{1, 2, 3})
	snap := att.Snapshot()
	if len(snap) != 1 || len(snap[0].Undo) != 2 {
		t.Fatalf("snapshot shape wrong: %+v", snap)
	}
	// Mutating the live entry must not affect the snapshot.
	e.Undo[1].Before[0] = 99
	e.CommitOp(1, 5, LogicalUndo{Op: 1, Key: 5}, 9)
	if snap[0].Undo[1].Before[0] != 1 {
		t.Fatal("snapshot aliases live undo data")
	}
	if snap[0].Undo[0].Kind != UndoOpBegin {
		t.Fatal("snapshot mutated by CommitOp")
	}
}
