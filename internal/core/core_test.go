package core

import (
	"errors"
	"testing"

	"repro/internal/iofault"
	"repro/internal/lockmgr"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/wal"
)

func testDB(t *testing.T, pc protect.Config) *DB {
	t.Helper()
	db, err := Open(Config{
		Dir:       t.TempDir(),
		ArenaSize: 1 << 16,
		Protect:   pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// scanLog visits every record of the stable log in dir.
func scanLog(t *testing.T, dir string, fn func(*wal.Record)) {
	t.Helper()
	cur, err := wal.OpenCursor(iofault.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
		fn(cur.Record())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
}

// opUpdate performs begin-op, update, commit-op as one unit.
func opUpdate(t *testing.T, txn *Txn, key wal.ObjectKey, addr mem.Addr, data []byte) {
	t.Helper()
	if err := txn.BeginOp(1, key); err != nil {
		t.Fatal(err)
	}
	u, err := txn.BeginUpdate(addr, len(data))
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), u.Bytes()...)
	copy(u.Bytes(), data)
	if err := u.End(); err != nil {
		t.Fatal(err)
	}
	if err := txn.CommitOp(1, key, wal.LogicalUndo{Op: testUndoOp, Key: key,
		Args: encodeTestUndo(addr, old)}); err != nil {
		t.Fatal(err)
	}
}

// testUndoOp restores the bytes captured in Args — a minimal logical undo
// for these unit tests (the heap package provides the real ones).
const testUndoOp = 0xEE

func encodeTestUndo(addr mem.Addr, old []byte) []byte {
	args := make([]byte, 8+len(old))
	for i := 0; i < 8; i++ {
		args[i] = byte(uint64(addr) >> (8 * i))
	}
	copy(args[8:], old)
	return args
}

func init() {
	RegisterUndoOp(testUndoOp, func(t *Txn, u wal.LogicalUndo) error {
		var addr uint64
		for i := 0; i < 8; i++ {
			addr |= uint64(u.Args[i]) << (8 * i)
		}
		old := u.Args[8:]
		if err := t.BeginOp(1, u.Key); err != nil {
			return err
		}
		up, err := t.BeginUpdate(mem.Addr(addr), len(old))
		if err != nil {
			return err
		}
		copy(up.Bytes(), old)
		if err := up.End(); err != nil {
			return err
		}
		return t.CommitCompensationOp(1, u.Key)
	})
}

func TestOpenRejectsExistingDatabase(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, ArenaSize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CloseClean(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, ArenaSize: 1 << 14}); err == nil {
		t.Fatal("Open accepted a directory with an existing checkpoint")
	}
}

func TestOpenRequiresArenaSize(t *testing.T) {
	if _, err := Open(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open accepted zero arena size")
	}
}

func TestBasicUpdateVisible(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	opUpdate(t, txn, 1, 128, []byte("hello"))
	got, err := txn.Read(128, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("read %q", got)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Audit(); err != nil {
		t.Fatalf("audit after commit: %v", err)
	}
}

func TestAbortRestoresData(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	// Committed base state.
	txn, _ := db.Begin()
	opUpdate(t, txn, 1, 128, []byte("base!"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Aborting transaction overwrites then rolls back.
	txn2, _ := db.Begin()
	opUpdate(t, txn2, 1, 128, []byte("evil!"))
	if err := txn2.Abort(); err != nil {
		t.Fatal(err)
	}
	txn3, _ := db.Begin()
	got, err := txn3.Read(128, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "base!" {
		t.Fatalf("after abort read %q, want base!", got)
	}
	txn3.Commit()
	// Codewords must be consistent after the compensated rollback.
	if err := db.Audit(); err != nil {
		t.Fatalf("audit after abort: %v", err)
	}
}

func TestAbortOpMidway(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	txn, _ := db.Begin()
	opUpdate(t, txn, 1, 0, []byte("keep"))
	if err := txn.BeginOp(1, 2); err != nil {
		t.Fatal(err)
	}
	u, err := txn.BeginUpdate(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	copy(u.Bytes(), "drop")
	if err := u.End(); err != nil {
		t.Fatal(err)
	}
	if err := txn.AbortOp(); err != nil {
		t.Fatal(err)
	}
	// The aborted op's bytes restored; the committed op's retained.
	if got, _ := txn.Read(0, 4); string(got) != "keep" {
		t.Fatalf("committed op data = %q", got)
	}
	if got, _ := txn.Read(64, 4); string(got) != "\x00\x00\x00\x00" {
		t.Fatalf("aborted op data = %q", got)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateCancel(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64})
	txn, _ := db.Begin()
	if err := txn.BeginOp(1, 9); err != nil {
		t.Fatal(err)
	}
	u, err := txn.BeginUpdate(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	copy(u.Bytes(), "garbage!")
	if err := u.Cancel(); err != nil {
		t.Fatal(err)
	}
	// Canceled update leaves no trace: bytes restored, codeword valid,
	// undo log back to just the op marker.
	if txn.Entry().Undo[len(txn.Entry().Undo)-1].Kind != wal.UndoOpBegin {
		t.Fatal("undo log retains canceled update")
	}
	if _, err := txn.Read(256, 8); err != nil {
		t.Fatalf("precheck failed after cancel: %v", err)
	}
	if err := txn.CommitOp(1, 9, wal.LogicalUndo{Op: testUndoOp, Key: 9,
		Args: encodeTestUndo(256, make([]byte, 8))}); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
}

func TestUpdateRules(t *testing.T) {
	db := testDB(t, protect.Config{})
	txn, _ := db.Begin()
	if _, err := txn.BeginUpdate(0, 8); err == nil {
		t.Fatal("update outside operation accepted")
	}
	txn.BeginOp(1, 1)
	u, err := txn.BeginUpdate(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.BeginUpdate(8, 8); err == nil {
		t.Fatal("nested update bracket accepted")
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("commit with open update accepted")
	}
	u.End()
	if err := txn.Commit(); err == nil {
		t.Fatal("commit with open operation accepted")
	}
	if err := txn.CommitOp(1, 1, wal.LogicalUndo{Op: testUndoOp, Key: 1,
		Args: encodeTestUndo(0, make([]byte, 8))}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Operations on a finished transaction fail.
	if _, err := txn.Read(0, 1); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("read after commit: %v", err)
	}
	if err := txn.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit: %v", err)
	}
	if err := txn.BeginOp(1, 1); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("BeginOp after commit: %v", err)
	}
}

func TestCommitOpWithoutBegin(t *testing.T) {
	db := testDB(t, protect.Config{})
	txn, _ := db.Begin()
	if err := txn.CommitOp(1, 1, wal.LogicalUndo{}); err == nil {
		t.Fatal("CommitOp without BeginOp accepted")
	}
	if err := txn.AbortOp(); err == nil {
		t.Fatal("AbortOp without BeginOp accepted")
	}
	txn.Abort()
}

func TestLocksReleasedOnCompletion(t *testing.T) {
	db := testDB(t, protect.Config{})
	txn, _ := db.Begin()
	if err := txn.Lock(42, lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	if db.Internals().Locks.HeldCount(txn.ID()) != 1 {
		t.Fatal("lock not recorded")
	}
	txn.Commit()
	if db.Internals().Locks.HeldCount(txn.ID()) != 0 {
		t.Fatal("locks survive commit")
	}
}

func TestAuditDetectsWildWriteAndLogsIt(t *testing.T) {
	// DisableHeal pins detection-only semantics; the healing audit path
	// has its own tests in heal_test.go.
	db := testDB(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64, DisableHeal: true})
	if err := db.Audit(); err != nil {
		t.Fatal(err)
	}
	if db.LastCleanAuditLSN() == 0 && db.AuditSerial() != 1 {
		t.Fatal("audit bookkeeping wrong")
	}
	db.Internals().Arena.Bytes()[500] ^= 0xFF // wild write
	err := db.Audit()
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("audit of corrupted image: %v", err)
	}
	if len(ce.Mismatches) != 1 || ce.Mismatches[0].Region != 500/64 {
		t.Fatalf("mismatches: %v", ce.Mismatches)
	}
	if ce.Error() == "" {
		t.Fatal("empty error text")
	}
	// The failing audit's corrupt ranges must be in the log for recovery.
	db.Close()
	var foundDirty bool
	scanLog(t, db.Config().Dir, func(r *wal.Record) {
		if r.Kind == wal.KindAuditEnd && !r.AuditClean {
			foundDirty = true
			if len(r.CorruptAddrs) != 1 || r.CorruptAddrs[0] != mem.Addr(500/64*64) {
				t.Errorf("audit-end corrupt ranges: %v", r.CorruptAddrs)
			}
		}
	})
	if !foundDirty {
		t.Fatal("dirty audit-end record not in log")
	}
}

func TestCheckpointRefusedWhenCorrupt(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64, DisableHeal: true})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	a1, ok := db.Internals().Checkpoints.Anchor()
	if !ok {
		t.Fatal("no anchor after checkpoint")
	}
	db.Internals().Arena.Bytes()[100] ^= 0x01
	err := db.Checkpoint()
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("checkpoint of corrupt database: %v", err)
	}
	a2, _ := db.Internals().Checkpoints.Anchor()
	if !a2.Equal(a1) {
		t.Fatal("corrupt checkpoint was certified")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	db := testDB(t, protect.Config{})
	db.SetMeta("catalog", []byte("tables"))
	if _, err := db.AllocPages(3); err != nil {
		t.Fatal(err)
	}
	enc := db.encodeMeta()

	db2 := testDB(t, protect.Config{})
	if err := db2.decodeMeta(enc); err != nil {
		t.Fatal(err)
	}
	v, ok := db2.Meta("catalog")
	if !ok || string(v) != "tables" {
		t.Fatalf("meta lost: %q %v", v, ok)
	}
	if db2.AllocatedPages() != 3 {
		t.Fatalf("allocator state lost: %d", db2.AllocatedPages())
	}
}

func TestAllocPagesExhaustion(t *testing.T) {
	db := testDB(t, protect.Config{})
	n := db.Internals().Arena.NumPages()
	first, err := db.AllocPages(n)
	if err != nil || first != 0 {
		t.Fatalf("alloc all: %v", err)
	}
	if _, err := db.AllocPages(1); err == nil {
		t.Fatal("over-allocation accepted")
	}
}

func TestAttachments(t *testing.T) {
	db := testDB(t, protect.Config{})
	key := NewAttachKey[int]("x")
	if _, ok := key.Get(db); ok {
		t.Fatal("phantom attachment")
	}
	key.Set(db, 42)
	v, ok := key.Get(db)
	if !ok || v != 42 {
		t.Fatal("attachment lost")
	}
	// Same name, distinct key: no collision (identity is the key value).
	other := NewAttachKey[string]("x")
	if _, ok := other.Get(db); ok {
		t.Fatal("keys collided by name")
	}
	inits := 0
	got, err := key.GetOrInit(db, func() (int, error) { inits++; return 7, nil })
	if err != nil || got != 42 || inits != 0 {
		t.Fatalf("GetOrInit on present key: v=%d inits=%d err=%v", got, inits, err)
	}
	s, err := other.GetOrInit(db, func() (string, error) { inits++; return "built", nil })
	if err != nil || s != "built" || inits != 1 {
		t.Fatalf("GetOrInit build: v=%q inits=%d err=%v", s, inits, err)
	}
}

func TestMetricsCounters(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindReadLog, RegionSize: 64})
	txn, _ := db.Begin()
	opUpdate(t, txn, 1, 0, []byte("abcd"))
	txn.Read(0, 4)
	txn.Commit()
	db.Audit()
	db.Checkpoint()
	s := db.Metrics()
	if s.Counter(obs.NameTxnsBegun) != 1 || s.Counter(obs.NameOps) != 1 || s.Counter(obs.NameUpdates) != 1 {
		t.Fatalf("txn/op/update counters: %+v", s.Counters)
	}
	if s.Counter(obs.NameReads) != 1 || s.Counter(obs.NameReadRecords) != 1 {
		t.Fatalf("read counters: %+v", s.Counters)
	}
	if s.Counter(obs.NameAuditPasses) < 2 || s.Counter(obs.NameCheckpoints) != 1 {
		t.Fatalf("audit/ckpt counters: %+v", s.Counters)
	}
}

func TestReadLogRecordsReachSystemLog(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindCWReadLog, RegionSize: 64})
	txn, _ := db.Begin()
	txn.BeginOp(1, 5)
	if _, err := txn.Read(100, 10); err != nil {
		t.Fatal(err)
	}
	u, _ := txn.BeginUpdate(100, 4)
	copy(u.Bytes(), "data")
	u.End()
	txn.CommitOp(1, 5, wal.LogicalUndo{Op: testUndoOp, Key: 5, Args: encodeTestUndo(100, make([]byte, 4))})
	txn.Commit()
	db.Close()

	var kinds []wal.Kind
	var readCW, writeCW bool
	scanLog(t, db.Config().Dir, func(r *wal.Record) {
		kinds = append(kinds, r.Kind)
		if r.Kind == wal.KindRead && r.HasCW {
			readCW = true
		}
		if r.Kind == wal.KindPhysRedo && r.HasCW {
			writeCW = true
		}
	})
	want := []wal.Kind{wal.KindTxnBegin, wal.KindOpBegin, wal.KindRead,
		wal.KindPhysRedo, wal.KindOpCommit, wal.KindTxnCommit}
	if len(kinds) != len(want) {
		t.Fatalf("log kinds: %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("log kinds: %v, want %v", kinds, want)
		}
	}
	if !readCW || !writeCW {
		t.Fatalf("codewords missing: read=%v write=%v", readCW, writeCW)
	}
}

func TestReadIntoMatchesRead(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindReadLog})
	txn, _ := db.Begin()
	opUpdate(t, txn, 1, 64, []byte("xyzzy"))
	a, err := txn.Read(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 5)
	if _, err := txn.ReadInto(64, b); err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("Read %q != ReadInto %q", a, b)
	}
	txn.Commit()
}

func TestClosedDB(t *testing.T) {
	db := testDB(t, protect.Config{})
	db.Close()
	if _, err := db.Begin(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin on closed DB: %v", err)
	}
	if err := db.Audit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Audit on closed DB: %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint on closed DB: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestHWSchemeThroughCore(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindHW, ForceSimProtect: true})
	txn, _ := db.Begin()
	opUpdate(t, txn, 1, 4096, []byte("guard"))
	txn.Commit()
	if db.Metrics().Counter(obs.NameProtectCalls) == 0 {
		t.Fatal("no protect calls recorded")
	}
	// All pages protected again outside update brackets.
	if db.Scheme().Protector().Writable(1) {
		t.Fatal("page writable outside update bracket")
	}
}

// mem64 converts an int offset to an arena address in tests.
func mem64(n int) mem.Addr { return mem.Addr(n) }

func TestUpdateWriteHelper(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	txn, _ := db.Begin()
	txn.BeginOp(1, 3)
	u, err := txn.BeginUpdate(512, 16)
	if err != nil {
		t.Fatal(err)
	}
	u.Write(4, []byte("midway"))
	if err := u.End(); err != nil {
		t.Fatal(err)
	}
	txn.CommitOp(1, 3, wal.LogicalUndo{Op: testUndoOp, Key: 3,
		Args: encodeTestUndo(512, make([]byte, 16))})
	got, _ := txn.Read(512, 16)
	if string(got[4:10]) != "midway" {
		t.Fatalf("Write helper misplaced data: %q", got)
	}
	txn.Commit()
	if err := db.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnStateStrings(t *testing.T) {
	for _, s := range []wal.TxnState{wal.TxnActive, wal.TxnCommitted, wal.TxnAborted, wal.TxnState(99)} {
		if s.String() == "" {
			t.Fatalf("empty state string for %d", uint8(s))
		}
	}
}

func TestExclusiveBarrierRuns(t *testing.T) {
	db := testDB(t, protect.Config{})
	ran := false
	if err := db.ExclusiveBarrier(func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("barrier function not run")
	}
}

func TestReadInsideUpdateBracketRefused(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64})
	txn, _ := db.Begin()
	txn.BeginOp(1, 1)
	u, err := txn.BeginUpdate(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(1024, 8); err == nil {
		t.Fatal("read inside open update bracket accepted (would self-deadlock)")
	}
	if _, err := txn.ReadInto(1024, make([]byte, 8)); err == nil {
		t.Fatal("ReadInto inside open update bracket accepted")
	}
	u.End()
	if _, err := txn.Read(1024, 8); err != nil {
		t.Fatalf("read after End: %v", err)
	}
	txn.CommitOp(1, 1, wal.LogicalUndo{Op: testUndoOp, Key: 1, Args: encodeTestUndo(0, make([]byte, 8))})
	txn.Commit()
}
