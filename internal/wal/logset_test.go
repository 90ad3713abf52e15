package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/iofault"
)

// TestLogSetSingleStreamByteCompat pins the upgrade contract: a LogSet
// opened with one stream writes byte-identical output to a plain
// SystemLog (no GSN stamping, no extra files), so existing databases
// upgrade and downgrade without conversion.
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
	if ls.NumStreams() != 1 {
		t.Fatalf("NumStreams = %d", ls.NumStreams())
	}
	if err := ls.AppendAndFlush(mkRecs()...); err != nil {
		t.Fatal(err)
	}
	if ls.GSN() != 0 {
		// Single-stream sets never stamp: the counter stays at its seed,
		// which is zero for a freshly created set.
		t.Fatalf("single-stream set advanced the GSN: %d", ls.GSN())
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(setDir, StreamFileName(1))); err == nil {
		t.Fatal("single-stream set created a second stream file")
	}

	rawDir := t.TempDir()
	sl, err := OpenSystemLogFS(iofault.OS, rawDir, 4096)
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
		t.Fatalf("single-stream LogSet output differs from SystemLog output (%d vs %d bytes)", len(a), len(b))
	}
}

// TestLogSetRoutingAndMerge appends interleaved transactions across a
// multi-stream set and checks the two ordering invariants recovery
// relies on: all records of one transaction live on its home stream in
// append order, and the merged scan reproduces the exact global append
// order via GSNs.
func TestLogSetRoutingAndMerge(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogSet(dir, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStreams() != 3 {
		t.Fatalf("NumStreams = %d", l.NumStreams())
	}

	// A deterministic interleaving of four transactions (streams 1, 2, 0, 1).
	var want []TxnID // global append order, by txn of each record
	appendOne := func(txn TxnID, kind Kind, payload byte) {
		r := &Record{Kind: kind, Txn: txn}
		if kind == KindPhysRedo {
			r.Addr = 128
			r.Data = []byte{payload, payload, payload, payload}
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, txn)
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

	merged, _, err := mergedScan(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Every multi-stream open stamps one gsn-epoch record on stream 0. It
	// carries the session's first GSN, so it merges ahead of the payload.
	if len(merged) == 0 || merged[0].R.Kind != KindGSNEpoch || merged[0].Stream != 0 {
		t.Fatal("merged scan does not start with the open's gsn-epoch record")
	}
	lastGSN := merged[0].R.GSN
	merged = merged[1:]
	if len(merged) != len(want) {
		t.Fatalf("merged %d records, appended %d", len(merged), len(want))
	}
	for i, sr := range merged {
		if sr.R.Txn != want[i] {
			t.Fatalf("merged[%d] is txn %d, want %d", i, sr.R.Txn, want[i])
		}
		if wantStream := int(uint64(sr.R.Txn) % 3); sr.Stream != wantStream {
			t.Fatalf("txn %d record on stream %d, want %d", sr.R.Txn, sr.Stream, wantStream)
		}
		if sr.R.GSN == 0 {
			t.Fatalf("merged[%d] has no GSN on a multi-stream set", i)
		}
		if sr.R.GSN <= lastGSN {
			t.Fatalf("merged[%d] GSN %d not above predecessor %d", i, sr.R.GSN, lastGSN)
		}
		lastGSN = sr.R.GSN
		if sr.R.OrderLSN() != LSN(sr.R.GSN) {
			t.Fatalf("OrderLSN %d != GSN %d", sr.R.OrderLSN(), sr.R.GSN)
		}
	}
}

// TestCursorMergeDeterministic pins the merge rule on hand-built stream
// files: unstamped records (the single-stream prefix, GSN 0) come first in
// their stream-0 order; stamped records follow in GSN order regardless of
// stream or position.
func TestCursorMergeDeterministic(t *testing.T) {
	dir := t.TempDir()
	writeStreamFile(t, dir, 0,
		&Record{Kind: KindTxnBegin, Txn: 1}, &Record{Kind: KindTxnCommit, Txn: 1},
		&Record{Kind: KindTxnBegin, Txn: 2, GSN: 101})
	writeStreamFile(t, dir, 1,
		&Record{Kind: KindTxnCommit, Txn: 2, GSN: 104}, &Record{Kind: KindTxnBegin, Txn: 3, GSN: 107})
	writeStreamFile(t, dir, 2, &Record{Kind: KindTxnCommit, Txn: 3, GSN: 112})
	merged, _, err := mergedScan(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantGSN := []uint64{0, 0, 101, 104, 107, 112}
	wantStream := []int{0, 0, 0, 1, 1, 2}
	if len(merged) != len(wantGSN) {
		t.Fatalf("merged %d records, want %d", len(merged), len(wantGSN))
	}
	for i, sr := range merged {
		if sr.R.GSN != wantGSN[i] || sr.Stream != wantStream[i] {
			t.Fatalf("pos %d: stream %d GSN %d, want stream %d GSN %d", i, sr.Stream, sr.R.GSN, wantStream[i], wantGSN[i])
		}
	}
	if merged[0].R.LSN != 0 || merged[1].R.LSN <= merged[0].R.LSN {
		t.Fatalf("unstamped prefix out of LSN order: %d then %d", merged[0].R.LSN, merged[1].R.LSN)
	}
}

// writeStreamFile writes stream i of a log set by hand: a base-0 header
// and the given records' frames.
func writeStreamFile(t *testing.T, dir string, i int, recs ...*Record) {
	t.Helper()
	b := encodeLogHeader(0)
	for _, r := range recs {
		b = r.Encode(b)
	}
	if err := os.WriteFile(filepath.Join(dir, StreamFileName(i)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLogSetAutoWiden pins that the on-disk stream count is a floor: a
// set written with three streams reopens with three even when asked for
// one, and widens when asked for more.
func TestLogSetAutoWiden(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogSet(dir, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAndFlush(&Record{Kind: KindTxnBegin, Txn: 5}); err != nil {
		t.Fatal(err)
	}
	gsnAtClose := l.GSN()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLogSet(dir, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l2.NumStreams() != 3 {
		t.Fatalf("reopened with %d streams, want 3 (floor)", l2.NumStreams())
	}
	if l2.GSN() < gsnAtClose {
		t.Fatalf("GSN seed %d below last stamped %d", l2.GSN(), gsnAtClose)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	l3, err := OpenLogSet(dir, 4096, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.NumStreams() != 5 {
		t.Fatalf("widened to %d streams, want 5", l3.NumStreams())
	}
	if n, err := DetectStreamsFS(iofault.OS, dir); err != nil || n != 5 {
		t.Fatalf("DetectStreamsFS = %d, %v; want 5", n, err)
	}
}

// TestLogSetUpgradeMergesOldPrefix writes a single-stream log, reopens it
// as a two-stream set, and checks the merged scan yields the unstamped
// old records first (in LSN order) followed by the stamped new ones.
func TestLogSetUpgradeMergesOldPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogSet(dir, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAndFlush(
		&Record{Kind: KindTxnBegin, Txn: 2},
		&Record{Kind: KindTxnCommit, Txn: 2},
	); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLogSet(dir, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, txn := range []TxnID{3, 4} {
		if err := l2.AppendAndFlush(
			&Record{Kind: KindTxnBegin, Txn: txn},
			&Record{Kind: KindTxnCommit, Txn: txn},
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	merged, _, err := mergedScan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 7 {
		t.Fatalf("merged %d records, want 7 (6 txn records + 1 gsn-epoch)", len(merged))
	}
	// The upgrade open stamps its gsn-epoch right after the unstamped
	// single-stream prefix: it holds the session's first GSN.
	if merged[2].R.Kind != KindGSNEpoch {
		t.Fatalf("merged[2] kind %v, want the upgrade open's gsn-epoch", merged[2].R.Kind)
	}
	merged = append(merged[:2:2], merged[3:]...)
	wantTxn := []TxnID{2, 2, 3, 3, 4, 4}
	for i, sr := range merged {
		if sr.R.Txn != wantTxn[i] {
			t.Fatalf("merged[%d] txn %d, want %d", i, sr.R.Txn, wantTxn[i])
		}
		if stamped := sr.R.GSN != 0; stamped != (sr.R.Txn != 2) {
			t.Fatalf("merged[%d] txn %d stamped=%v", i, sr.R.Txn, stamped)
		}
	}
}

// TestLogSetCompactVector appends across streams and compacts with a
// vector shorter than the set: covered streams truncate to their entry,
// the uncovered stream keeps its full history.
func TestLogSetCompactVector(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogSet(dir, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, txn := range []TxnID{3, 4, 5} { // streams 0, 1, 2
		if err := l.AppendAndFlush(
			&Record{Kind: KindTxnBegin, Txn: txn},
			&Record{Kind: KindTxnCommit, Txn: txn},
		); err != nil {
			t.Fatal(err)
		}
	}
	ends := l.StableEnds()
	if err := l.CompactVector(ends[:2]); err != nil {
		t.Fatal(err)
	}
	bases := l.BaseLSNs()
	if bases[0] != ends[0] || bases[1] != ends[1] {
		t.Fatalf("covered streams not compacted: bases %v, ends %v", bases, ends)
	}
	if bases[2] != 0 {
		t.Fatalf("uncovered stream compacted: base %d", bases[2])
	}
	if got, err := LogBasesFS(iofault.OS, dir); err != nil ||
		got[0] != bases[0] || got[1] != bases[1] || got[2] != bases[2] {
		t.Fatalf("LogBasesFS = %v, %v; want %v", got, err, bases)
	}
}

// TestLogSetPoisonFanOutNoAcks is the fail-stop contract across streams,
// checked under -race: once ANY stream poisons, no stream of the set
// acknowledges another commit. Committers sample the set-level poison
// before each commit; a commit that began after the poison was observable
// must not return nil. The fan-out must also wake every sibling stream.
func TestLogSetPoisonFanOutNoAcks(t *testing.T) {
	const streams = 4
	dir := t.TempDir()
	fsys := iofault.NewFaultFS(dir)
	// The set syncs each stream file once at open (durability of the file
	// set), so the failing sync must land after those.
	fsys.FailNthSync(streams + 3)
	l, err := OpenLogSetFS(fsys, dir, 4096, streams, nil)
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
		t.Fatalf("%d commits acknowledged after the set was observably poisoned", ackedAfterPoison)
	}
	if err := l.Poisoned(); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("set Poisoned() = %v", err)
	}
	// The fan-out runs on its own goroutine; every sibling must fail-stop.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < streams; i++ {
		for l.Stream(i).Poisoned() == nil {
			if time.Now().After(deadline) {
				t.Fatalf("stream %d never poisoned by the fan-out", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// And the set stays dead: no append on any stream succeeds.
	for txn := TxnID(1000); txn < TxnID(1000+streams); txn++ {
		if err := l.Append(&Record{Kind: KindTxnBegin, Txn: txn}); !errors.Is(err, ErrLogPoisoned) {
			t.Fatalf("append to txn %d's stream after poison = %v", txn, err)
		}
	}
	l.CloseWithoutFlush()
}

// TestLogSetCommitForcesDependencies is the cross-stream prefix-durability
// contract behind the sharded group commit: acknowledging a commit on one
// stream must first force every sibling stream holding volatile records
// with lower GSNs. Txn 2's op records sit unflushed on stream 0 when txn
// 3 commits on stream 1; after a crash (close without flush) txn 2's
// records must still be on disk, or redo of the acked commit could run
// against state missing its predecessor.
func TestLogSetCommitForcesDependencies(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogSet(dir, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Txn 2 routes to stream 0, txn 3 to stream 1.
	if err := l.Append(
		&Record{Kind: KindTxnBegin, Txn: 2},
		&Record{Kind: KindPhysRedo, Txn: 2, Addr: 64, Data: []byte{1, 2, 3, 4}},
	); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAndFlush(
		&Record{Kind: KindTxnBegin, Txn: 3},
		&Record{Kind: KindTxnCommit, Txn: 3},
	); err != nil {
		t.Fatal(err)
	}
	commitGSN := l.GSN()
	l.CloseWithoutFlush() // crash: volatile tails are dropped

	merged, gaps, err := mergedScan(dir)
	if err != nil {
		t.Fatal(err)
	}
	var txn2 int
	for _, sr := range merged {
		if sr.R.Txn == 2 {
			txn2++
		}
		if sr.R.GSN == 0 || sr.R.GSN > commitGSN {
			t.Fatalf("unexpected GSN %d in crash image (commit GSN %d)", sr.R.GSN, commitGSN)
		}
	}
	if txn2 != 2 {
		t.Fatalf("txn 2 left %d durable records, want 2: acked commit depends on volatile sibling-stream records", txn2)
	}
	if len(gaps) != 0 {
		t.Fatalf("GSN gaps after dependency-forced commit: %v", gaps)
	}
}

// TestGSNGapsDetectLostStream doctors the failure Cursor.Gaps exists
// to report: a stream flushed past its siblings (bypassing the set-level
// dependency force), then a crash dropped the volatile sibling records.
// The merged scan must surface the hole in the stamped-GSN sequence.
func TestGSNGapsDetectLostStream(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogSet(dir, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Kind: KindTxnBegin, Txn: 2}); err != nil { // stream 0, GSN 2
		t.Fatal(err)
	}
	if err := l.Stream(0).Flush(); err != nil { // epoch (GSN 1) + GSN 2 durable
		t.Fatal(err)
	}
	if err := l.Append(&Record{Kind: KindPhysRedo, Txn: 2, Addr: 64, Data: []byte{9, 9, 9, 9}}); err != nil { // stream 0, GSN 3, volatile
		t.Fatal(err)
	}
	if err := l.Append(&Record{Kind: KindTxnBegin, Txn: 3}); err != nil { // stream 1, GSN 4
		t.Fatal(err)
	}
	if err := l.Stream(1).Flush(); err != nil { // per-stream flush skips the dependency force
		t.Fatal(err)
	}
	l.CloseWithoutFlush() // crash: GSN 3 is lost, GSN 4 survives

	_, gaps, err := mergedScan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v, want exactly one hole", gaps)
	}
	if g := gaps[0]; g.After != 2 || g.Next != 4 || g.Stream != 1 {
		t.Fatalf("gap = %+v, want {After:2 Next:4 Stream:1}", g)
	}
}

// TestGSNGapsSessionBoundary pins that reopening a multi-stream set
// does not false-positive as a gap: the GSN counter re-seeds above the
// previous session's stamps, and the per-open gsn-epoch record absorbs
// exactly that jump.
func TestGSNGapsSessionBoundary(t *testing.T) {
	dir := t.TempDir()
	for _, txn := range []TxnID{2, 3} {
		l, err := OpenLogSet(dir, 4096, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendAndFlush(
			&Record{Kind: KindTxnBegin, Txn: txn},
			&Record{Kind: KindTxnCommit, Txn: txn},
		); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	merged, gaps, err := mergedScan(dir)
	if err != nil {
		t.Fatal(err)
	}
	var epochs int
	var jumped bool
	var prev uint64
	for _, sr := range merged {
		if sr.R.Kind == KindGSNEpoch {
			epochs++
			if prev != 0 && sr.R.GSN != prev+1 {
				jumped = true // the seed jump lands on this epoch
			}
		}
		prev = sr.R.GSN
	}
	if epochs != 2 {
		t.Fatalf("found %d gsn-epoch records, want one per open", epochs)
	}
	if !jumped {
		t.Fatal("second open did not re-seed the GSN above the first session (test would not exercise the epoch exemption)")
	}
	if len(gaps) != 0 {
		t.Fatalf("session boundary reported as gaps: %v", gaps)
	}
}
