package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/iofault"
)

// TestLogSetSingleStreamByteCompat pins the compatibility entry point:
// OpenLogSet with one stream is the system log, writing byte-identical
// output to OpenSystemLogFS and no second file, and a request for more
// streams is refused before anything is created.
func TestLogSetSingleStreamByteCompat(t *testing.T) {
	mkRecs := func() []*Record {
		return []*Record{
			{Kind: KindTxnBegin, Txn: 7},
			{Kind: KindPhysRedo, Txn: 7, Addr: 64, Data: []byte("abcdefgh")},
			{Kind: KindTxnCommit, Txn: 7},
		}
	}

	setDir := t.TempDir()
	ls, err := OpenLogSet(setDir, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.AppendAndFlush(mkRecs()...); err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(setDir, legacyStreamFile)); err == nil {
		t.Fatal("OpenLogSet created a second stream file")
	}

	rawDir := t.TempDir()
	sl, err := OpenSystemLogFS(iofault.OS, rawDir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sl.AppendAndFlush(mkRecs()...); err != nil {
		t.Fatal(err)
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(filepath.Join(setDir, LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(rawDir, LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("OpenLogSet output differs from OpenSystemLogFS output (%d vs %d bytes)", len(a), len(b))
	}

	wide := t.TempDir()
	if _, err := OpenLogSet(wide, 4096, 2); err == nil {
		t.Fatal("OpenLogSet accepted two streams")
	}
	if ents, _ := os.ReadDir(wide); len(ents) != 0 {
		t.Fatalf("refused OpenLogSet left %d files behind", len(ents))
	}
}

// TestLogSetRoutingAndMerge appends interleaved transactions and checks
// the ordering invariant recovery relies on: a scan returns every record in
// exact append order, at dense LSNs (each record starts where the previous
// frame ended), with its transaction's records in their append order.
func TestLogSetRoutingAndMerge(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSystemLogFS(iofault.OS, dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []*Record
	appendOne := func(txn TxnID, kind Kind, payload byte) {
		r := &Record{Kind: kind, Txn: txn}
		if kind == KindPhysRedo {
			r.Addr = 128
			r.Data = []byte{payload, payload, payload, payload}
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	for _, txn := range []TxnID{1, 2, 3, 4} {
		appendOne(txn, KindTxnBegin, 0)
	}
	for i := 0; i < 5; i++ {
		for _, txn := range []TxnID{4, 1, 3, 2} {
			appendOne(txn, KindPhysRedo, byte(i))
		}
	}
	for _, txn := range []TxnID{2, 4, 1, 3} {
		appendOne(txn, KindTxnCommit, 0)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := scanAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, appended %d", len(got), len(want))
	}
	var next LSN
	for i, r := range got {
		w := want[i]
		if r.Txn != w.Txn || r.Kind != w.Kind || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("record %d: txn %d %v, want txn %d %v", i, r.Txn, r.Kind, w.Txn, w.Kind)
		}
		if r.LSN != w.LSN || r.LSN != next {
			t.Fatalf("record %d at LSN %d, appended at %d, previous frame ended at %d", i, r.LSN, w.LSN, next)
		}
		next = r.LSN + LSN(r.EncodedSize())
	}
}

// writeLegacyStream leaves a second stream file, as the multi-stream log
// set of earlier versions wrote it, in dir.
func writeLegacyStream(t *testing.T, dir string) {
	t.Helper()
	b := (&Record{Kind: KindTxnBegin, Txn: 3}).Encode(encodeLogHeader(0))
	if err := os.WriteFile(filepath.Join(dir, legacyStreamFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirSnapshot maps every file in dir to its bytes.
func dirSnapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = b
	}
	return snap
}

// TestLogSetAutoWiden: a directory holding system-1.log is a multi-stream
// log, and the open refuses it — naming the file, writing nothing — rather
// than open stream 0 alone and hide the other stream's committed records.
// That holds with and without a system.log beside it, and through the
// compatibility entry point too.
func TestLogSetAutoWiden(t *testing.T) {
	for _, withLog := range []bool{true, false} {
		dir := t.TempDir()
		if withLog {
			l, err := OpenSystemLogFS(iofault.OS, dir, 4096, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.AppendAndFlush(&Record{Kind: KindTxnBegin, Txn: 2}, &Record{Kind: KindTxnCommit, Txn: 2}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		writeLegacyStream(t, dir)
		before := dirSnapshot(t, dir)
		for name, open := range map[string]func() error{
			"OpenSystemLogFS": func() error { _, err := OpenSystemLogFS(iofault.OS, dir, 4096, nil); return err },
			"OpenLogSet":      func() error { _, err := OpenLogSet(dir, 4096, 1); return err },
			"LogBaseFS":       func() error { _, err := LogBaseFS(iofault.OS, dir); return err },
		} {
			err := open()
			if err == nil || !strings.Contains(err.Error(), legacyStreamFile) {
				t.Fatalf("withLog=%v: %s = %v, want a refusal naming %s", withLog, name, err, legacyStreamFile)
			}
		}
		if after := dirSnapshot(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("withLog=%v: a refused open changed the directory", withLog)
		}
	}
}

// TestLogSetUpgradeMergesOldPrefix: a log reopened by a later session
// resumes at the old end — the scan returns the first session's records
// and then the second's, at LSNs that continue without a gap.
func TestLogSetUpgradeMergesOldPrefix(t *testing.T) {
	dir := t.TempDir()
	for _, txns := range [][]TxnID{{2}, {3, 4}} {
		l, err := OpenLogSet(dir, 4096, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, txn := range txns {
			if err := l.AppendAndFlush(
				&Record{Kind: KindTxnBegin, Txn: txn},
				&Record{Kind: KindTxnCommit, Txn: txn},
			); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := scanAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantTxn := []TxnID{2, 2, 3, 3, 4, 4}
	if len(got) != len(wantTxn) {
		t.Fatalf("scanned %d records, want %d", len(got), len(wantTxn))
	}
	var next LSN
	for i, r := range got {
		if r.Txn != wantTxn[i] || r.LSN != next {
			t.Fatalf("record %d: txn %d at LSN %d, want txn %d at %d", i, r.Txn, r.LSN, wantTxn[i], next)
		}
		next = r.LSN + LSN(r.EncodedSize())
	}
}

// TestLogSetCompactVector compacts the log to a checkpoint's CK_end: the
// base moves there in memory and in the file header, the records above it
// keep their LSNs, and a reader from the old base is refused.
func TestLogSetCompactVector(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSystemLogFS(iofault.OS, dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var keep LSN
	for _, txn := range []TxnID{3, 4, 5} {
		if txn == 5 {
			keep = l.StableEnd()
		}
		if err := l.AppendAndFlush(
			&Record{Kind: KindTxnBegin, Txn: txn},
			&Record{Kind: KindTxnCommit, Txn: txn},
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(keep); err != nil {
		t.Fatal(err)
	}
	if got := l.BaseLSN(); got != keep {
		t.Fatalf("base %d after compacting to %d", got, keep)
	}
	if got, err := LogBaseFS(iofault.OS, dir); err != nil || got != keep {
		t.Fatalf("LogBaseFS = %d, %v; want %d", got, err, keep)
	}
	var txns []TxnID
	if err := scanLog(dir, keep, func(r *Record) bool { txns = append(txns, r.Txn); return true }); err != nil {
		t.Fatal(err)
	}
	if len(txns) != 2 || txns[0] != 5 || txns[1] != 5 {
		t.Fatalf("records above CK_end: %v, want txn 5's two", txns)
	}
	if err := scanLog(dir, 0, func(*Record) bool { return true }); err == nil {
		t.Fatal("scan from below the compacted base accepted")
	}
}

// TestLogSetPoisonFanOutNoAcks is the fail-stop contract under
// concurrency, checked under -race: committers sample the poison before
// each commit, and a commit that began after the poison was observable
// must not return nil. Every group-commit waiter wakes, and the log stays
// dead for appends.
func TestLogSetPoisonFanOutNoAcks(t *testing.T) {
	dir := t.TempDir()
	fsys := iofault.NewFaultFS(dir)
	fsys.FailNthSync(3)
	l, err := OpenSystemLogFS(fsys, dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 30
	var wg sync.WaitGroup
	var mu sync.Mutex
	ackedAfterPoison := 0
	poisonedSeen := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := TxnID(g*perG + i + 1)
				poisonedBefore := l.Poisoned() != nil
				err := l.AppendAndFlush(
					&Record{Kind: KindTxnBegin, Txn: id},
					&Record{Kind: KindTxnCommit, Txn: id},
				)
				mu.Lock()
				if err == nil && poisonedBefore {
					ackedAfterPoison++
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
		t.Fatal("injected fsync failure never surfaced to a committer")
	}
	if ackedAfterPoison != 0 {
		t.Fatalf("%d commits acknowledged after the log was observably poisoned", ackedAfterPoison)
	}
	if err := l.Poisoned(); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("Poisoned() = %v", err)
	}
	if err := l.Append(&Record{Kind: KindTxnBegin, Txn: 1000}); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("append after poison = %v", err)
	}
	l.CloseWithoutFlush()
}

// TestLogSetCommitForcesDependencies is the prefix-durability contract of
// group commit: an acknowledged commit makes every record appended before
// it durable, including another transaction's unflushed records. Txn 2's
// op records sit in the tail when txn 3 commits; the machine then crashes
// (a FaultFS crash armed right after the ack), and what survives on disk
// must hold txn 2's records below txn 3's commit.
func TestLogSetCommitForcesDependencies(t *testing.T) {
	dir := t.TempDir()
	fsys := iofault.NewFaultFS(dir)
	l, err := OpenSystemLogFS(fsys, dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(
		&Record{Kind: KindTxnBegin, Txn: 2},
		&Record{Kind: KindPhysRedo, Txn: 2, Addr: 64, Data: []byte{1, 2, 3, 4}},
	); err != nil {
		t.Fatal(err)
	}
	commit := &Record{Kind: KindTxnCommit, Txn: 3}
	if err := l.AppendAndFlush(&Record{Kind: KindTxnBegin, Txn: 3}, commit); err != nil {
		t.Fatal(err)
	}
	fsys.CrashAtPoint(int64(fsys.Points())) // the next I/O never happens
	if err := l.Append(&Record{Kind: KindTxnBegin, Txn: 4}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err == nil {
		t.Fatal("flush after the crash succeeded")
	}
	l.CloseWithoutFlush()

	survived := t.TempDir()
	if err := fsys.MaterializeDurable(survived); err != nil {
		t.Fatal(err)
	}
	got, err := scanAll(survived)
	if err != nil {
		t.Fatal(err)
	}
	var txns []TxnID
	for _, r := range got {
		txns = append(txns, r.Txn)
	}
	if want := []TxnID{2, 2, 3, 3}; !reflect.DeepEqual(txns, want) {
		t.Fatalf("durable records by txn %v, want %v: the acked commit's predecessors must survive it", txns, want)
	}
	if last := got[len(got)-1]; last.Kind != KindTxnCommit || last.LSN != commit.LSN {
		t.Fatalf("last durable record %v at %d, want the acked commit at %d", last.Kind, last.LSN, commit.LSN)
	}
}

// TestGSNGapsDetectLostStream: the cursor refuses a directory holding
// system-1.log, naming the file and leaving the directory as it was, so a
// scan never silently covers one stream of a multi-stream log.
func TestGSNGapsDetectLostStream(t *testing.T) {
	dir := cursorTestLog(t, 16)
	writeLegacyStream(t, dir)
	before := dirSnapshot(t, dir)
	for _, start := range []*LSN{nil, new(LSN)} {
		if _, err := OpenCursor(iofault.OS, dir, start); err == nil || !strings.Contains(err.Error(), legacyStreamFile) {
			t.Fatalf("OpenCursor = %v, want a refusal naming %s", err, legacyStreamFile)
		}
	}
	if after := dirSnapshot(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("a refused cursor changed the directory")
	}
}

// TestLogSetGSNInsideChecksum: a frame whose checksum holds but whose
// payload carries bytes past its last field, or the retired kind 12, is
// ErrBadPayload — for the frame decoder, a scan, and an open without a
// scan's word for the file — and the file is never truncated to drop it.
// The frames are the ones the multi-stream log set of earlier versions
// wrote: a physical redo record with a trailing GSN, and a session-epoch
// record.
func TestLogSetGSNInsideChecksum(t *testing.T) {
	good := &Record{Kind: KindTxnBegin, Txn: 7}
	for name, hexFrame := range map[string]string{
		"trailing bytes": "130000005c5475fb0107d209086162636465666768008080808020",
		"kind 12":        "0400000082f5dd0d0c008120",
	} {
		t.Run(name, func(t *testing.T) {
			bad, err := hex.DecodeString(hexFrame)
			if err != nil {
				t.Fatal(err)
			}
			if n := frameLen(bad, true); n != len(bad) {
				t.Fatalf("frame walker rejects the frame (%d of %d bytes): the checksum should hold", n, len(bad))
			}
			if _, _, err := decodeFrame(bad); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("decode: %v, want ErrBadPayload", err)
			}
			dir := t.TempDir()
			b := good.Encode(encodeLogHeader(0))
			b = append(b, bad...)
			b = good.Encode(b)
			path := filepath.Join(dir, LogFileName)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := scanLog(dir, 0, func(*Record) bool { return true }); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("scan: %v, want ErrBadPayload", err)
			}
			if _, err := openEnd(t, dir); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("open: %v, want ErrBadPayload", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, b) {
				t.Fatal("the log file changed: the frame was truncated away")
			}
		})
	}
}
