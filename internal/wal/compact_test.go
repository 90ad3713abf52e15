package wal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/iofault"
)

func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestCompactDiscardsPrefixKeepsLSNs(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	var lsns []LSN
	for i := 0; i < 20; i++ {
		r := &Record{Kind: KindPhysRedo, Txn: TxnID(i), Addr: 8, Data: []byte{byte(i)}}
		l.Append(r)
		lsns = append(lsns, r.LSN)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := logSize(t, dir)

	keep := lsns[10]
	if err := l.Compact(keep); err != nil {
		t.Fatal(err)
	}
	if l.BaseLSN() != keep {
		t.Fatalf("base = %d, want %d", l.BaseLSN(), keep)
	}
	if logSize(t, dir) >= sizeBefore {
		t.Fatal("compaction did not shrink the file")
	}
	// Appends continue with unchanged LSN arithmetic.
	r := &Record{Kind: KindTxnCommit, Txn: 99}
	l.Append(r)
	if r.LSN != l.StableEnd() {
		t.Fatalf("post-compaction LSN = %d, want %d", r.LSN, l.StableEnd())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Scanning from the new base sees records 10.. plus the new commit.
	var seen []TxnID
	if err := scanLog(dir, keep, func(rec *Record) bool {
		seen = append(seen, rec.Txn)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 11 || seen[0] != 10 || seen[10] != 99 {
		t.Fatalf("scan after compaction: %v", seen)
	}
	// Scanning below the base is an error, not silence.
	if err := scanLog(dir, 0, func(*Record) bool { return true }); err == nil {
		t.Fatal("scan below base accepted")
	}
	// LSNs of retained records are unchanged.
	found := false
	scanLog(dir, keep, func(rec *Record) bool {
		if rec.Txn == 15 {
			found = rec.LSN == lsns[15]
		}
		return true
	})
	if !found {
		t.Fatal("retained record's LSN changed")
	}
}

func TestCompactValidation(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	// Two Appends, so r2 starts a frame: compaction points are frame
	// boundaries.
	r1 := &Record{Kind: KindTxnBegin, Txn: 1}
	r2 := &Record{Kind: KindTxnBegin, Txn: 2}
	l.Append(r1)
	l.Append(r2)
	l.Flush()

	if err := l.Compact(l.StableEnd() + 100); err == nil {
		t.Fatal("compaction beyond stable end accepted")
	}
	if err := l.Compact(r2.LSN + 1); err == nil {
		t.Fatal("compaction off a frame boundary accepted")
	}
	if err := l.Compact(0); err != nil {
		t.Fatalf("no-op compaction: %v", err)
	}
	if err := l.Compact(r2.LSN); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(r1.LSN); err == nil {
		t.Fatal("compaction below base accepted")
	}
	// Compacting to exactly the stable end empties the record section.
	if err := l.Compact(l.StableEnd()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	count := 0
	scanLog(dir, l.BaseLSN(), func(*Record) bool { count++; return true })
	if count != 0 {
		t.Fatalf("records after full compaction: %d", count)
	}
}

func TestCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	var keep LSN
	for i := 0; i < 10; i++ {
		r := &Record{Kind: KindTxnBegin, Txn: TxnID(i)}
		l.Append(r)
		if i == 5 {
			keep = r.LSN
		}
	}
	l.Flush()
	if err := l.Compact(keep); err != nil {
		t.Fatal(err)
	}
	end := l.StableEnd()
	l.Close()

	l2 := openLog(t, dir)
	if l2.BaseLSN() != keep {
		t.Fatalf("base after reopen = %d, want %d", l2.BaseLSN(), keep)
	}
	if l2.StableEnd() != end {
		t.Fatalf("stable end after reopen = %d, want %d", l2.StableEnd(), end)
	}
	r := &Record{Kind: KindTxnCommit, Txn: 100}
	l2.Append(r)
	if r.LSN != end {
		t.Fatalf("LSN after reopen = %d, want %d", r.LSN, end)
	}
	l2.Close()

	base, err := LogBaseFS(iofault.OS, dir)
	if err != nil || base != keep {
		t.Fatalf("LogBase = %d, %v", base, err)
	}
}

func TestLogBaseMissingAndEmpty(t *testing.T) {
	if base, err := LogBaseFS(iofault.OS, t.TempDir()); err != nil || base != 0 {
		t.Fatalf("missing log: %d, %v", base, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, LogFileName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if base, err := LogBaseFS(iofault.OS, dir); err != nil || base != 0 {
		t.Fatalf("empty log: %d, %v", base, err)
	}
}

func TestTruncateAtValidation(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	r1 := &Record{Kind: KindTxnBegin, Txn: 1}
	r2 := &Record{Kind: KindTxnBegin, Txn: 2}
	l.Append(r1)
	l.Append(r2)
	l.Flush()
	l.Compact(r2.LSN)
	l.Close()

	if err := TruncateAtFS(iofault.OS, dir, r1.LSN); err == nil {
		t.Fatal("truncation below base accepted")
	}
	if err := TruncateAtFS(iofault.OS, dir, r2.LSN+1); err == nil {
		t.Fatal("truncation off a boundary accepted")
	}
	if err := TruncateAtFS(iofault.OS, dir, r2.LSN); err != nil {
		t.Fatal(err)
	}
	count := 0
	scanLog(dir, r2.LSN, func(*Record) bool { count++; return true })
	if count != 0 {
		t.Fatalf("records after truncation: %d", count)
	}
}

func TestCompactConcurrentWithCommitters(t *testing.T) {
	// Compaction (checkpointer) racing committers must neither lose
	// records nor corrupt LSN accounting.
	dir := t.TempDir()
	l := openLog(t, dir)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	var committed []LSN
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := &Record{Kind: KindTxnCommit, Txn: TxnID(g*10000 + i)}
				if err := l.AppendAndFlush(r); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				committed = append(committed, r.LSN)
				mu.Unlock()
			}
		}(g)
	}
	// Compact repeatedly to the current stable end while commits flow.
	for i := 0; i < 20; i++ {
		mu.Lock()
		var horizon LSN
		if len(committed) > 0 {
			horizon = committed[len(committed)-1]
		}
		mu.Unlock()
		if horizon > l.BaseLSN() {
			if err := l.Compact(horizon); err != nil {
				t.Fatalf("compact %d: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	base := l.BaseLSN()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Every commit at or above the final base is still in the log.
	want := map[LSN]bool{}
	mu.Lock()
	for _, lsn := range committed {
		if lsn >= base {
			want[lsn] = true
		}
	}
	mu.Unlock()
	got := map[LSN]bool{}
	if err := scanLog(dir, base, func(r *Record) bool { got[r.LSN] = true; return true }); err != nil {
		t.Fatal(err)
	}
	for lsn := range want {
		if !got[lsn] {
			t.Fatalf("committed record at %d lost by compaction", lsn)
		}
	}
}
