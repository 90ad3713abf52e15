package wal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/iofault"
	"repro/internal/mem"
	"repro/internal/obs"
)

func openLog(t *testing.T, dir string) *SystemLog {
	t.Helper()
	l, err := OpenSystemLogFS(iofault.OS, dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSystemLogAppendFlushScan(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	r1 := &Record{Kind: KindTxnBegin, Txn: 1}
	r2 := &Record{Kind: KindPhysRedo, Txn: 1, Addr: 100, Data: []byte{1, 2, 3}}
	l.Append(r1, r2)
	if r1.LSN != 0 {
		t.Fatalf("first LSN = %d, want 0", r1.LSN)
	}
	if r2.LSN != LSN(r1.EncodedSize()) {
		t.Fatalf("second LSN = %d, want %d", r2.LSN, r1.EncodedSize())
	}
	if l.StableEnd() != 0 {
		t.Fatal("records stable before flush")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.StableEnd() != l.End() {
		t.Fatal("stable end lags after flush")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []*Record
	if err := scanLog(dir, 0, func(r *Record) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scanned %d records, want 2", len(got))
	}
	if got[0].Kind != KindTxnBegin || got[1].Kind != KindPhysRedo {
		t.Fatal("record kinds wrong")
	}
	if got[1].LSN != r2.LSN {
		t.Fatalf("scanned LSN %d != assigned %d", got[1].LSN, r2.LSN)
	}
}

func TestSystemLogScanFromMiddle(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	var mid LSN
	for i := 0; i < 10; i++ {
		r := &Record{Kind: KindTxnBegin, Txn: TxnID(i)}
		l.Append(r)
		if i == 5 {
			mid = r.LSN
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var txns []TxnID
	if err := scanLog(dir, mid, func(r *Record) bool { txns = append(txns, r.Txn); return true }); err != nil {
		t.Fatal(err)
	}
	if len(txns) != 5 || txns[0] != 5 {
		t.Fatalf("scan from middle got %v", txns)
	}
}

func TestSystemLogScanStopsEarly(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	for i := 0; i < 10; i++ {
		l.Append(&Record{Kind: KindTxnBegin, Txn: TxnID(i)})
	}
	l.Close()
	count := 0
	scanLog(dir, 0, func(r *Record) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("scan visited %d records, want 3", count)
	}
}

func TestSystemLogScanBeyondEnd(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	l.Append(&Record{Kind: KindTxnBegin, Txn: 1})
	l.Close()
	if err := scanLog(dir, 1<<40, func(*Record) bool { return true }); err == nil {
		t.Fatal("scan beyond end accepted")
	}
}

func TestSystemLogScanMissingFile(t *testing.T) {
	if err := scanLog(t.TempDir(), 0, func(*Record) bool { return true }); err != nil {
		t.Fatalf("scan of absent log: %v", err)
	}
}

func TestSystemLogCrashDiscardsTail(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	l.Append(&Record{Kind: KindTxnBegin, Txn: 1})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Kind: KindTxnBegin, Txn: 2}) // never flushed
	if err := l.CloseWithoutFlush(); err != nil {
		t.Fatal(err)
	}
	var txns []TxnID
	scanLog(dir, 0, func(r *Record) bool { txns = append(txns, r.Txn); return true })
	if len(txns) != 1 || txns[0] != 1 {
		t.Fatalf("after crash: %v, want only txn 1", txns)
	}
}

func TestSystemLogReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	l.Append(&Record{Kind: KindTxnBegin, Txn: 1})
	l.Append(&Record{Kind: KindPhysRedo, Txn: 1, Addr: 5, Data: []byte{1, 2, 3, 4}})
	l.Close()

	// Simulate a torn write: chop the last few bytes of the log file.
	path := filepath.Join(dir, LogFileName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir)
	defer l2.Close()
	// Only the first record survives; new appends go after it.
	r := &Record{Kind: KindTxnCommit, Txn: 1}
	l2.Append(r)
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	l2.Close()
	scanLog(dir, 0, func(rec *Record) bool { kinds = append(kinds, rec.Kind); return true })
	if len(kinds) != 2 || kinds[0] != KindTxnBegin || kinds[1] != KindTxnCommit {
		t.Fatalf("kinds after torn-tail reopen: %v", kinds)
	}
}

func TestSystemLogDirtyNotification(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	var dirty []mem.PageID
	l.RegisterDirtyNoter(DirtyNoterFunc(func(id mem.PageID) { dirty = append(dirty, id) }))

	// Record spanning pages 0 and 1 (page size 4096).
	l.Append(&Record{Kind: KindPhysRedo, Txn: 1, Addr: 4090, Data: make([]byte, 10)})
	// Read records never dirty pages.
	l.Append(&Record{Kind: KindRead, Txn: 1, Addr: 9000, Len: 10})
	if len(dirty) != 0 {
		t.Fatal("dirty noted before flush")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 2 || dirty[0] != 0 || dirty[1] != 1 {
		t.Fatalf("dirty pages = %v, want [0 1]", dirty)
	}
	l.Close()
}

func TestSystemLogAppendAndFlush(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	reg := obs.NewRegistry()
	l.SetRegistry(reg)
	if err := l.AppendAndFlush(&Record{Kind: KindTxnCommit, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if l.StableEnd() == 0 {
		t.Fatal("commit record not stable")
	}
	if got := reg.Counter(obs.NameWALFlushes).Load(); got != 1 {
		t.Fatalf("flushes = %d", got)
	}
	if got := reg.Counter(obs.NameWALAppends).Load(); got != 1 {
		t.Fatalf("appends = %d", got)
	}
	l.Close()
}

func TestSystemLogReset(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	l.Append(&Record{Kind: KindTxnBegin, Txn: 1})
	l.Flush()
	l.Append(&Record{Kind: KindTxnBegin, Txn: 2})
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.End() != 0 || l.StableEnd() != 0 {
		t.Fatal("reset did not zero the log")
	}
	r := &Record{Kind: KindTxnBegin, Txn: 3}
	l.Append(r)
	if r.LSN != 0 {
		t.Fatalf("post-reset LSN = %d, want 0", r.LSN)
	}
	l.Close()
	var txns []TxnID
	scanLog(dir, 0, func(rec *Record) bool { txns = append(txns, rec.Txn); return true })
	if len(txns) != 1 || txns[0] != 3 {
		t.Fatalf("post-reset log contents: %v", txns)
	}
}

func TestSystemLogConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	var wg sync.WaitGroup
	const goroutines, per = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(&Record{Kind: KindPhysRedo, Txn: TxnID(g), Addr: mem.Addr(i), Data: []byte{byte(i)}})
				if i%10 == 0 {
					if err := l.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	seen := map[LSN]bool{}
	scanLog(dir, 0, func(r *Record) bool {
		if seen[r.LSN] {
			t.Errorf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
		count++
		return true
	})
	if count != goroutines*per {
		t.Fatalf("scanned %d records, want %d", count, goroutines*per)
	}
}

func TestSystemLogReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	l.Append(&Record{Kind: KindTxnBegin, Txn: 1})
	l.Close()
	end := LSN(0)
	scanLog(dir, 0, func(r *Record) bool { end = r.LSN + LSN(r.EncodedSize()); return true })

	l2 := openLog(t, dir)
	r := &Record{Kind: KindTxnBegin, Txn: 2}
	l2.Append(r)
	if r.LSN != end {
		t.Fatalf("LSN after reopen = %d, want %d", r.LSN, end)
	}
	l2.Close()
}

func TestGroupCommitSharesForces(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	defer l.Close()
	reg := obs.NewRegistry()
	l.SetRegistry(reg)

	const committers = 8
	const commitsEach = 25
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commitsEach; i++ {
				r := &Record{Kind: KindTxnCommit, Txn: TxnID(g*1000 + i)}
				if err := l.AppendAndFlush(r); err != nil {
					t.Error(err)
					return
				}
				// Durability contract: the record is stable on return.
				if l.StableEnd() < r.LSN+LSN(r.EncodedSize()) {
					t.Errorf("commit returned before record %d was stable", r.LSN)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := uint64(committers * commitsEach)
	if got := reg.Counter(obs.NameWALAppends).Load(); got != total {
		t.Fatalf("appends = %d, want %d", got, total)
	}
	// Group commit: concurrent committers share forces when their commits
	// overlap. Scheduling on a single-CPU host may serialize them
	// perfectly (one force each), so sharing is reported, not asserted;
	// more forces than commits would indicate a bookkeeping bug.
	flushes := reg.Counter(obs.NameWALFlushes).Load()
	if flushes > total {
		t.Fatalf("flushes = %d exceeds %d commits", flushes, total)
	}
	t.Logf("%d commits used %d forces", total, flushes)

	// Every record made it to disk exactly once, in LSN order.
	l.Close()
	var lsns []LSN
	scanLog(dir, 0, func(r *Record) bool { lsns = append(lsns, r.LSN); return true })
	if len(lsns) != int(total) {
		t.Fatalf("scanned %d records, want %d", len(lsns), total)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatal("LSNs not strictly increasing")
		}
	}
}
