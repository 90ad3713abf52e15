package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/iofault"
)

// sizeFS wraps an FS so a test sees the log file's length at every Sync
// and can fail the log's nth Truncate.
type sizeFS struct {
	iofault.FS
	mu           sync.Mutex
	syncSizes    []int64 // the log file's length at each Sync, in order
	truncates    int
	failTruncate int // fail the nth (1-based) Truncate of the log; 0: never
}

type sizeFile struct {
	iofault.File
	fs   *sizeFS
	path string
}

func (fs *sizeFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != LogFileName {
		return f, err
	}
	return &sizeFile{File: f, fs: fs, path: name}, nil
}

func (f *sizeFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	f.fs.truncates++
	fail := f.fs.truncates == f.fs.failTruncate
	f.fs.mu.Unlock()
	if fail {
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

func (f *sizeFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	fi, err := os.Stat(f.path)
	if err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.syncSizes = append(f.fs.syncSizes, fi.Size())
	f.fs.mu.Unlock()
	return nil
}

// commitRecs is one small transaction: begin, a physical redo of data,
// commit.
func commitRecs(id TxnID, data []byte) []*Record {
	return []*Record{
		{Kind: KindTxnBegin, Txn: id},
		{Kind: KindPhysRedo, Txn: id, Addr: 8, Data: data},
		{Kind: KindTxnCommit, Txn: id},
	}
}

// TestLogFileGrowsOncePerMiB: the flusher keeps the file ahead of its
// records, so of 2,000 small commits' fsyncs only ceil(bytes / 1 MiB) see a
// new file length — the rest write data blocks only — and Close trims the
// file back to its records.
func TestLogFileGrowsOncePerMiB(t *testing.T) {
	dir := t.TempDir()
	fsys := &sizeFS{FS: iofault.OS}
	l, err := OpenSystemLogFS(fsys, dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 600)
	const commits = 2000
	for i := 0; i < commits; i++ {
		if err := l.AppendAndFlush(commitRecs(TxnID(i+1), data)...); err != nil {
			t.Fatal(err)
		}
	}
	end := logHeaderSize + int64(l.StableEnd())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(fsys.syncSizes) != commits {
		t.Fatalf("%d syncs for %d commits", len(fsys.syncSizes), commits)
	}
	changes, prev := 0, int64(logHeaderSize)
	for _, size := range fsys.syncSizes {
		if size != prev {
			changes++
		}
		prev = size
	}
	if want := (end + logExtendStep - 1) / logExtendStep; want < 2 || changes != int(want) {
		t.Fatalf("file length changed at %d of %d syncs; the log holds %d bytes, want %d changes", changes, commits, end, want)
	}
	if size := logSize(t, dir); size != end {
		t.Fatalf("closed log file is %d bytes, its records end at %d", size, end)
	}
}

// TestExtendFailurePoisonsNoAcks is TestLogSetPoisonFanOutNoAcks with the
// failure in the flusher's extension of the file: a failed extending
// Truncate is a failed flush. The log poisons, every group-commit waiter
// wakes, no commit that began after the poison was observable is
// acknowledged, and every acknowledged commit is on disk.
func TestExtendFailurePoisonsNoAcks(t *testing.T) {
	dir := t.TempDir()
	fsys := &sizeFS{FS: iofault.OS, failTruncate: 2} // the extension past 1 MiB
	l, err := OpenSystemLogFS(fsys, dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 20
	data := make([]byte, 16<<10) // 160 commits: 2.5 MiB, two extensions' worth
	var wg sync.WaitGroup
	var mu sync.Mutex
	var acked []TxnID
	ackedAfterPoison, poisonedSeen := 0, 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := TxnID(g*perG + i + 1)
				poisonedBefore := l.Poisoned() != nil
				err := l.AppendAndFlush(commitRecs(id, data)...)
				mu.Lock()
				if err == nil {
					acked = append(acked, id)
					if poisonedBefore {
						ackedAfterPoison++
					}
				}
				if errors.Is(err, ErrLogPoisoned) {
					poisonedSeen++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait() // a hang here means a group-commit waiter was never woken

	if poisonedSeen == 0 {
		t.Fatal("failed extension never surfaced to a committer")
	}
	if ackedAfterPoison != 0 {
		t.Fatalf("%d commits acknowledged after the log was observably poisoned", ackedAfterPoison)
	}
	if err := l.Append(&Record{Kind: KindTxnBegin, Txn: 1000}); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("append after poison = %v", err)
	}
	l.CloseWithoutFlush()

	durable := map[TxnID]bool{}
	if err := scanLog(dir, 0, func(r *Record) bool {
		if r.Kind == KindTxnCommit {
			durable[r.Txn] = true
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range acked {
		if !durable[id] {
			t.Fatalf("txn %d acknowledged but its commit is not on disk", id)
		}
	}
}

// TestCompactAndResetExtendFromNewLength: Compact and Reset leave the file
// at its new, shorter length, and the next flush extends from there — to
// the first 1 MiB multiple past its records, not to a length the file had
// before.
func TestCompactAndResetExtendFromNewLength(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	defer l.Close()
	big := make([]byte, 300<<10)
	var last *Record
	for i := 0; i < 4; i++ {
		last = &Record{Kind: KindPhysRedo, Txn: TxnID(i + 1), Addr: 8, Data: big}
		if err := l.AppendAndFlush(last); err != nil {
			t.Fatal(err)
		}
	}
	if size := logSize(t, dir); size != 2*logExtendStep {
		t.Fatalf("log of %d bytes is a %d-byte file, want 2 MiB", l.StableEnd(), size)
	}

	next := func(step string, id TxnID) {
		t.Helper()
		r := &Record{Kind: KindTxnCommit, Txn: id}
		if err := l.AppendAndFlush(r); err != nil {
			t.Fatal(err)
		}
		if size := logSize(t, dir); size != logExtendStep {
			t.Fatalf("after %s, the next flush left a %d-byte file, want 1 MiB", step, size)
		}
		var got []LSN
		if err := scanLog(dir, l.BaseLSN(), func(s *Record) bool { got = append(got, s.LSN); return true }); err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || got[len(got)-1] != r.LSN {
			t.Fatalf("after %s, scan returns %v, want the new record at %d last", step, got, r.LSN)
		}
	}
	if err := l.Compact(last.LSN); err != nil {
		t.Fatal(err)
	}
	if size, want := logSize(t, dir), logHeaderSize+int64(l.StableEnd()-last.LSN); size != want {
		t.Fatalf("compacted file is %d bytes, want %d", size, want)
	}
	next("Compact", 10)
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if size := logSize(t, dir); size != logHeaderSize {
		t.Fatalf("reset file is %d bytes, want the header alone", size)
	}
	next("Reset", 11)
}

// TestEndChecksOnExtendedCrashedLog: a crash leaves the file extended past
// its records, and the end checks measure against the valid prefix, not the
// file: a cursor may start at the valid end but not inside the zero hole,
// and the log may be cut at the valid end but not in the hole — nor inside
// a frame, even where the payload itself is zeros.
func TestEndChecksOnExtendedCrashedLog(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	zeros := &Record{Kind: KindPhysRedo, Txn: 2, Addr: 8, Data: make([]byte, 64)}
	for _, recs := range [][]*Record{commitRecs(1, []byte{1}), {zeros}} {
		if err := l.AppendAndFlush(recs...); err != nil {
			t.Fatal(err)
		}
	}
	end := l.StableEnd()
	l.CloseWithoutFlush()
	if size := logSize(t, dir); size != logExtendStep {
		t.Fatalf("crashed log file is %d bytes, want the 1 MiB extension", size)
	}

	cur, err := OpenCursor(iofault.OS, dir, &end)
	if err != nil {
		t.Fatalf("cursor at the valid end: %v", err)
	}
	if cur.Next() || cur.Err() != nil {
		t.Fatalf("cursor at the valid end returned a record (err %v)", cur.Err())
	}
	for _, at := range []LSN{end + 1, end + 8, end + 4096} {
		if _, err := OpenCursor(iofault.OS, dir, &at); err == nil {
			t.Fatalf("cursor opened at %d, inside the zero hole past %d", at, end)
		}
		if err := TruncateAtFS(iofault.OS, dir, at); err == nil {
			t.Fatalf("cut at %d, inside the zero hole past %d, accepted", at, end)
		}
	}
	if mid := zeros.LSN + 16; TruncateAtFS(iofault.OS, dir, mid) == nil {
		t.Fatalf("cut at %d, among the zero bytes of a payload, accepted", mid)
	}
	if size := logSize(t, dir); size != logExtendStep {
		t.Fatalf("a refused cut changed the file to %d bytes", size)
	}
	if err := TruncateAtFS(iofault.OS, dir, end); err != nil {
		t.Fatalf("cut at the valid end: %v", err)
	}
	if size, want := logSize(t, dir), logHeaderSize+int64(end); size != want {
		t.Fatalf("cut at the valid end left %d bytes, want %d", size, want)
	}
}

// TestOpenTruncatesPastAZeroedFrame: one flush's frames F1 F2 F3 survive a
// crash out of order — F1, F2's blocks never written (zeros), F3 intact.
// The valid prefix ends at F1, and the open must cut F3 away before
// appending: a frame exactly as long as F2 appended after the reopen lands
// where F2 was, and a scan must end at it, never reaching the stale F3
// that would otherwise follow it byte for byte.
func TestOpenTruncatesPastAZeroedFrame(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	frame := func(id TxnID, fill byte) *Record {
		return &Record{Kind: KindPhysRedo, Txn: id, Addr: 8, Data: bytes.Repeat([]byte{fill}, 32)}
	}
	f1, f2, f3 := frame(1, 0xA1), frame(2, 0xA2), frame(3, 0xA3)
	for _, r := range []*Record{f1, f2, f3} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.CloseWithoutFlush()
	f, err := os.OpenFile(filepath.Join(dir, LogFileName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, f3.LSN-f2.LSN), logHeaderSize+int64(f2.LSN)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l = openLog(t, dir)
	if end := l.End(); end != f2.LSN {
		t.Fatalf("reopened log ends at %d, want F2's start %d", end, f2.LSN)
	}
	f2b := frame(2, 0xB2)
	if err := l.AppendAndFlush(f2b); err != nil {
		t.Fatal(err)
	}
	l.CloseWithoutFlush()
	if f2b.LSN != f2.LSN {
		t.Fatalf("new frame at %d, want F2's start %d", f2b.LSN, f2.LSN)
	}
	var got []*Record
	if err := scanLog(dir, 0, func(r *Record) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Txn != 1 || got[1].Txn != 2 || got[1].Data[0] != 0xB2 {
		t.Fatalf("scan returned %d records (%+v), want F1 and the new frame, never F3", len(got), got)
	}
}

// TestFramesEndingInZerosSurviveTheHole: reads stop at the last non-zero
// byte so the zero hole is never loaded, but a frame's own bytes can end in
// zeros — a few, or more than a page. Every reader must still see the whole
// frame, whether the file was trimmed by Close or left extended by a
// crash.
func TestFramesEndingInZerosSurviveTheHole(t *testing.T) {
	for _, tail := range []int{1, 100, 10 << 10} {
		for _, crash := range []bool{false, true} {
			dir := t.TempDir()
			l := openLog(t, dir)
			last := &Record{Kind: KindPhysRedo, Txn: 2, Addr: 8, Data: append([]byte{7}, make([]byte, tail)...)}
			for _, recs := range [][]*Record{commitRecs(1, []byte{1}), {last}} {
				if err := l.AppendAndFlush(recs...); err != nil {
					t.Fatal(err)
				}
			}
			end := l.StableEnd()
			if crash {
				l.CloseWithoutFlush()
			} else if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			cur, err := OpenCursor(iofault.OS, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got *Record
			for cur.Next() {
				got = cloneRecord(cur.Record())
			}
			if cur.Err() != nil || got == nil || got.LSN != last.LSN || !bytes.Equal(got.Data, last.Data) || cur.End() != end {
				t.Fatalf("tail %d, crash %v: scan ends at %d with %+v (err %v); want the frame of zeros, ending at %d", tail, crash, cur.End(), got, cur.Err(), end)
			}
			if oe, err := openEnd(t, dir); err != nil || oe != end {
				t.Fatalf("tail %d, crash %v: open ends at %d (%v), want %d", tail, crash, oe, err, end)
			}
		}
	}
}
