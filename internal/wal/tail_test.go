package wal

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/iofault"
	"repro/internal/mem"
)

// TestAppendAllocatesNothing is the allocation budget of the log tail: in
// steady state (the double buffer has reached its working size) appending
// a 100-byte physical redo record — frame encoded in place, footprint
// noted for the dirty-page table — touches the heap zero times.
func TestAppendAllocatesNothing(t *testing.T) {
	l, err := OpenSystemLogFS(iofault.OS, t.TempDir(), 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := &Record{Kind: KindPhysRedo, Txn: 7, Addr: 4096, Data: make([]byte, 100)}
	batch := func() {
		for i := 0; i < 64; i++ {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	batch() // grows the first buffer
	batch() // grows the second; from here the two only swap
	var appendErr error
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			if err := l.Append(rec); err != nil {
				appendErr = err
			}
		}
		// The force is part of the steady state being measured: it swaps
		// the buffers instead of dropping one.
		if err := l.Flush(); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if allocs != 0 {
		t.Fatalf("64 appends + flush allocated %.1f times, want 0", allocs)
	}
}

// TestRecycledTailRetentionCap: a flushed buffer over the cap is dropped,
// not kept as the spare, so one bulk load does not pin its high-water mark.
func TestRecycledTailRetentionCap(t *testing.T) {
	l, err := OpenSystemLogFS(iofault.OS, t.TempDir(), 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := &Record{Kind: KindPhysRedo, Txn: 1, Addr: 0, Data: make([]byte, maxRetainedTail+1)}
	if err := l.AppendAndFlush(big); err != nil {
		t.Fatal(err)
	}
	if l.spareTail != nil {
		t.Fatalf("a %d-byte flushed buffer was retained (cap %d)", cap(l.spareTail), maxRetainedTail)
	}
	small := &Record{Kind: KindPhysRedo, Txn: 1, Addr: 0, Data: make([]byte, 100)}
	if err := l.AppendAndFlush(small); err != nil {
		t.Fatal(err)
	}
	if l.spareTail == nil || cap(l.spareTail) > maxRetainedTail {
		t.Fatalf("an ordinary flushed buffer was not recycled (cap %d)", cap(l.spareTail))
	}
}

// watchFS wraps every file it opens so that Write checks the buffer it was
// handed is not touched while the write is in flight: the bytes are copied
// on entry and compared on exit, with a hook in between where the test
// makes other goroutines append. Under -race a write into the buffer during
// that window is also a reported data race against the compare.
type watchFS struct {
	iofault.FS
	armed    atomic.Bool
	failNext atomic.Bool // the next armed Write reports failure
	during   func()      // runs inside an armed Write, between copy and compare
	torn     atomic.Int32
}

type watchFile struct {
	iofault.File
	fs *watchFS
}

func (fs *watchFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &watchFile{File: f, fs: fs}, nil
}

func (f *watchFile) Write(p []byte) (int, error) {
	if !f.fs.armed.Load() {
		return f.File.Write(p)
	}
	before := append([]byte(nil), p...)
	f.fs.during()
	if !bytes.Equal(before, p) {
		f.fs.torn.Add(1)
	}
	if f.fs.failNext.CompareAndSwap(true, false) {
		return 0, errors.New("injected write failure")
	}
	return f.File.Write(p)
}

// TestFlushOwnsSwappedOutTail is the aliasing contract of the double
// buffer: while a flusher is inside Write with the tail it swapped out,
// concurrent committers and appenders fill the OTHER buffer; the captured
// one comes back into rotation only after Write has returned — and never
// after a failed Write (the poison path).
func TestFlushOwnsSwappedOutTail(t *testing.T) {
	dir := t.TempDir()
	var l *SystemLog
	var next atomic.Uint64
	var inWrite sync.WaitGroup
	var fire atomic.Bool // set per round: only the round's own force spawns load
	fsys := &watchFS{FS: iofault.OS}
	fsys.during = func() {
		if !fire.CompareAndSwap(true, false) {
			return // a queued committer's force: checked, but spawns nothing
		}
		// Two committers queue behind this force (they block on flushDone,
		// so they are started, not joined, here) and a burst of plain
		// appends grows the live tail past a reallocation or two.
		for c := 0; c < 2; c++ {
			inWrite.Add(1)
			go func() {
				defer inWrite.Done()
				id := TxnID(next.Add(1))
				err := l.AppendAndFlush(&Record{Kind: KindTxnCommit, Txn: id})
				if err != nil && !errors.Is(err, ErrLogPoisoned) {
					t.Errorf("queued committer: %v", err)
				}
			}()
		}
		for i := 0; i < 40; i++ {
			id := TxnID(next.Add(1))
			err := l.Append(&Record{Kind: KindPhysRedo, Txn: id, Addr: mem.Addr(id), Data: bytes.Repeat([]byte{byte(id)}, 100)})
			if err != nil && !errors.Is(err, ErrLogPoisoned) {
				t.Errorf("append during force: %v", err)
			}
		}
	}
	var err error
	if l, err = OpenSystemLogFS(fsys, dir, 4096, nil); err != nil {
		t.Fatal(err)
	}
	fsys.armed.Store(true)

	const rounds = 30
	for i := 0; i < rounds; i++ {
		id := TxnID(next.Add(1))
		fire.Store(true)
		if err := l.AppendAndFlush(&Record{Kind: KindTxnCommit, Txn: id}); err != nil {
			t.Fatal(err)
		}
		inWrite.Wait()
	}
	if n := fsys.torn.Load(); n != 0 {
		t.Fatalf("%d in-flight write buffers were modified before Write returned", n)
	}
	// Everything acknowledged so far is on disk, in LSN order, with the
	// bytes it was appended with.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	inWrite.Wait()
	var got int
	seen := map[TxnID]bool{}
	if err := scanLog(dir, 0, func(r *Record) bool {
		got++
		if seen[r.Txn] {
			t.Errorf("txn %d logged twice", r.Txn)
		}
		seen[r.Txn] = true
		if r.Kind == KindPhysRedo && !bytes.Equal(r.Data, bytes.Repeat([]byte{byte(r.Txn)}, 100)) {
			t.Errorf("txn %d: payload garbled on disk", r.Txn)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := int(next.Load()); got != want {
		t.Fatalf("scanned %d records, appended %d", got, want)
	}

	// Poison path: the Write fails while committers are queued and appends
	// are landing in the other buffer. The failed buffer must not come back
	// as the spare, the tail is discarded, and nobody hangs.
	fsys.failNext.Store(true)
	fire.Store(true)
	err = l.AppendAndFlush(&Record{Kind: KindTxnCommit, Txn: TxnID(next.Add(1))})
	if !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("commit through a failed write = %v, want ErrLogPoisoned", err)
	}
	inWrite.Wait()
	if n := fsys.torn.Load(); n != 0 {
		t.Fatalf("%d in-flight write buffers were modified on the poison path", n)
	}
	l.latch.Lock()
	if l.tail != nil || l.tailRecs != nil || l.spareTail != nil || l.spareRecs != nil {
		t.Error("a poisoned log still holds tail buffers")
	}
	l.latch.Unlock()
	if err := l.Append(&Record{Kind: KindTxnBegin, Txn: 1}); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("append after poison = %v", err)
	}
	l.Close()
}
