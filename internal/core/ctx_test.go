package core

import (
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/wal"
)

// TestBeginCtxRefusesDeadContext pins the cheapest cancellation point:
// a context that is already done never admits a transaction.
func TestBeginCtxRefusesDeadContext(t *testing.T) {
	db := testDB(t, protect.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.BeginCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BeginCtx(canceled) = %v, want context.Canceled", err)
	}
}

// TestLockCtxCancelUnblocksWait parks one transaction behind another's
// exclusive lock and cancels its context mid-wait: the waiter must
// return promptly with the context error, take nothing, and leave both
// transactions usable (waiter abortable, holder committable).
func TestLockCtxCancelUnblocksWait(t *testing.T) {
	db, err := Open(Config{
		Dir:         t.TempDir(),
		ArenaSize:   1 << 16,
		LockTimeout: 30 * time.Second, // far beyond the test: cancellation must win
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	key := wal.ObjectKey(0x5151)
	holder, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Lock(key, lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter, err := db.BeginCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}

	lockErr := make(chan error, 1)
	go func() { lockErr <- waiter.Lock(key, lockmgr.Exclusive) }()

	// Let the waiter queue up, then cancel it.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-lockErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled lock wait returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled lock wait did not return")
	}

	if got := db.Metrics().Counter(obs.NameLockCancels); got != 1 {
		t.Fatalf("lockmgr.cancels = %d, want 1", got)
	}
	if err := waiter.Abort(); err != nil {
		t.Fatalf("aborting canceled waiter: %v", err)
	}
	if err := holder.Commit(); err != nil {
		t.Fatalf("holder commit after waiter cancellation: %v", err)
	}
}

// TestLockCtxExplicitOverride checks the per-wait context: a transaction
// begun with a background context can still bound one lock wait.
func TestLockCtxExplicitOverride(t *testing.T) {
	db, err := Open(Config{
		Dir:         t.TempDir(),
		ArenaSize:   1 << 16,
		LockTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	key := wal.ObjectKey(0x7272)
	holder, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Lock(key, lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	waiter, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := waiter.LockCtx(ctx, key, lockmgr.Exclusive); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("LockCtx past deadline = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("deadline-bounded wait took %v", waited)
	}
	if err := waiter.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitRefusedOnDeadContext: cancellation before the commit record
// is appended refuses the commit outright — nothing was logged, so the
// transaction is still abortable and its effects roll back.
func TestCommitRefusedOnDeadContext(t *testing.T) {
	db := testDB(t, protect.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	txn, err := db.BeginCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	opUpdate(t, txn, wal.ObjectKey(0x11), 64, []byte{0xAA, 0xBB})
	cancel()
	err = txn.Commit()
	if err == nil {
		t.Fatal("Commit with dead context succeeded")
	}
	if errors.Is(err, ErrCommitUnresolved) {
		t.Fatalf("pre-append refusal misreported as unresolved: %v", err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatalf("abort after refused commit: %v", err)
	}
	// The update must be rolled back.
	check, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer check.Abort()
	buf, err := check.Read(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] == 0xAA && buf[1] == 0xBB {
		t.Fatal("refused commit's update survived abort")
	}
}

// syncGateFS blocks the first log Sync after arm until release is
// closed, so a test can hold a group-commit force in flight.
type syncGateFS struct {
	iofault.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

type syncGateFile struct {
	iofault.File
	fs *syncGateFS
}

func (g *syncGateFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncGateFile{File: f, fs: g}, nil
}

func (f syncGateFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestCommitUnresolvedOnCanceledFlushWait cancels a committer parked in
// the group-commit wait behind another transaction's force: its commit
// record is already appended, so Commit must report ErrCommitUnresolved
// (not a refusal), promptly, and the record must become durable with the
// next force. This is the wire server's forced shutdown of a pipelined
// PUT+COMMIT.
func TestCommitUnresolvedOnCanceledFlushWait(t *testing.T) {
	gate := &syncGateFS{FS: iofault.OS, entered: make(chan struct{}), release: make(chan struct{})}
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, ArenaSize: 1 << 16, FS: gate})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			close(gate.release)
		}
		db.Close()
	}()

	flusher, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	opUpdate(t, flusher, wal.ObjectKey(0x21), 64, []byte{0x01})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiter, err := db.BeginCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	opUpdate(t, waiter, wal.ObjectKey(0x22), 128, []byte{0x02})
	waiterID := waiter.ID()

	gate.armed.Store(true)
	flushed := make(chan error, 1)
	go func() { flushed <- flusher.Commit() }()
	<-gate.entered // the flusher's force is in its Sync

	end := db.log.End()
	committed := make(chan error, 1)
	go func() { committed <- waiter.Commit() }()
	// The commit record is appended under the log latch, and the latch is
	// dropped only inside the group-commit wait: once End moves and the
	// latch is free again, the waiter is parked.
	for db.log.End() == end {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-committed:
		if !errors.Is(err, ErrCommitUnresolved) {
			t.Fatalf("canceled group-commit wait: Commit = %v, want ErrCommitUnresolved", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit did not return after its context was canceled mid group-commit wait")
	}

	close(gate.release)
	released = true
	if err := <-flushed; err != nil {
		t.Fatalf("flusher commit: %v", err)
	}
	// The next force carries the unresolved commit record to disk.
	next, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	opUpdate(t, next, wal.ObjectKey(0x23), 192, []byte{0x03})
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	durable := false
	scanLog(t, dir, func(r *wal.Record) {
		if r.Kind == wal.KindTxnCommit && r.Txn == waiterID {
			durable = true
		}
	})
	if !durable {
		t.Fatal("the unresolved commit record is not in the stable log after crash")
	}
}
