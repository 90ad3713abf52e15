package torture

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// TestFaultFreeRun sanity-checks the workload itself: it completes, every
// commit is acknowledged, and the I/O point count is stable enough to
// make the exhaustive sweep meaningful.
func TestFaultFreeRun(t *testing.T) {
	c := DefaultConfig()
	dir := filepath.Join(t.TempDir(), "db")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	fsys := iofault.NewFaultFS(dir)
	res := Run(dir, fsys, c)
	if res.Err != nil {
		t.Fatalf("fault-free run failed: %v", res.Err)
	}
	if res.Committed != c.Txns {
		t.Fatalf("committed %d of %d txns", res.Committed, c.Txns)
	}
	if got := fsys.Points(); got < 20 {
		t.Fatalf("suspiciously few I/O points: %d", got)
	}
	// Determinism: a second run must consume the identical point count,
	// otherwise crash-at-K would not visit the same boundary in each run.
	dir2 := filepath.Join(t.TempDir(), "db2")
	if err := os.MkdirAll(dir2, 0o755); err != nil {
		t.Fatal(err)
	}
	fsys2 := iofault.NewFaultFS(dir2)
	if res2 := Run(dir2, fsys2, c); res2.Err != nil {
		t.Fatalf("second run failed: %v", res2.Err)
	}
	if fsys.Points() != fsys2.Points() {
		t.Fatalf("nondeterministic I/O point count: %d vs %d", fsys.Points(), fsys2.Points())
	}
}

// TestCrashPointExhaustive is the tentpole assertion: for EVERY I/O point
// K of the fixed workload, crashing at K and recovering from the frozen
// durable state converges to a state with a clean codeword audit where
// acknowledged commits are present and unacknowledged transactions are
// absent.
func TestCrashPointExhaustive(t *testing.T) {
	c := DefaultConfig()
	if testing.Short() {
		c = SmokeConfig()
	}
	root := t.TempDir()
	n, err := CountPoints(filepath.Join(root, "dry"), c)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("workload has %d I/O points", n)
	for k := int64(0); k < int64(n); k++ {
		_, _, verr := CrashPoint(
			filepath.Join(root, fmt.Sprintf("w%d", k)),
			filepath.Join(root, fmt.Sprintf("r%d", k)),
			c, k)
		if verr != nil {
			t.Fatalf("crash at I/O point %d/%d: %v", k, n, verr)
		}
	}
}

// TestTortureSmoke is the bounded variant make torture-smoke runs in CI:
// every crash point of the smoke workload.
func TestTortureSmoke(t *testing.T) {
	c := SmokeConfig()
	root := t.TempDir()
	n, err := CountPoints(filepath.Join(root, "dry"), c)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < int64(n); k++ {
		if _, _, verr := CrashPoint(
			filepath.Join(root, fmt.Sprintf("w%d", k)),
			filepath.Join(root, fmt.Sprintf("r%d", k)),
			c, k); verr != nil {
			t.Fatalf("crash at I/O point %d/%d: %v", k, n, verr)
		}
	}
}

// TestCrashPointExhaustiveMultiStream reruns the exhaustive sweep under
// codewords in the read log instead of DefaultConfig's data codewords:
// every physical redo record then carries its region's codeword, and every
// recovery runs the delete-transaction algorithm, checking each logged
// codeword against the image being rebuilt. From every crash point it must
// still converge to acked-commits-exact, deleting nothing.
func TestCrashPointExhaustiveMultiStream(t *testing.T) {
	c := DefaultConfig()
	if testing.Short() {
		c = SmokeConfig()
	}
	c.kind = protect.KindCWReadLog
	root := t.TempDir()
	n, err := CountPoints(filepath.Join(root, "dry"), c)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("codeword read-logging workload has %d I/O points", n)
	for k := int64(0); k < int64(n); k++ {
		_, rep, verr := CrashPoint(
			filepath.Join(root, fmt.Sprintf("w%d", k)),
			filepath.Join(root, fmt.Sprintf("r%d", k)),
			c, k)
		if verr != nil {
			t.Fatalf("crash at I/O point %d/%d: %v", k, n, verr)
		}
		if !rep.FreshDatabase && (!rep.CWMode || len(rep.Deleted) != 0) {
			t.Fatalf("crash at I/O point %d/%d: cw mode %v, deleted %v; want the codeword pass to delete nothing", k, n, rep.CWMode, rep.Deleted)
		}
	}
}

// TestFailedFsyncFailStops proves the fsyncgate fix end to end: a failed
// log fsync poisons the log, the failing commit reports the error, every
// later transaction fails with ErrLogPoisoned, and nothing that was only
// in the poisoned tail survives recovery.
func TestFailedFsyncFailStops(t *testing.T) {
	c := DefaultConfig()
	dir := filepath.Join(t.TempDir(), "db")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	fsys := iofault.NewFaultFS(dir)
	// Sync #1 is the initial load's commit; #2 is inside the first
	// checkpoint (image sync). Fail #1 so the very first commit dies.
	fsys.FailNthSync(1)
	res := Run(dir, fsys, c)
	if res.Err == nil {
		t.Fatal("workload succeeded despite injected fsync failure")
	}
	if !errors.Is(res.Err, wal.ErrLogPoisoned) {
		t.Fatalf("first failure is %v, want ErrLogPoisoned in chain", res.Err)
	}
	if !errors.Is(res.Err, iofault.ErrInjected) {
		t.Fatalf("poison cause lost: %v does not wrap the injected error", res.Err)
	}
	if res.Committed != 0 {
		t.Fatalf("%d commits acknowledged after the log died", res.Committed)
	}
	// The acknowledged-state contract still holds through recovery.
	if _, err := Verify(fsys, filepath.Join(t.TempDir(), "rec"), c, res); err != nil {
		t.Fatalf("recovery after poisoned log: %v", err)
	}
}

// TestPoisonedLogFailsEverything drives the poisoned log directly: after
// the injected fsync failure, Append, AppendAndFlush, Flush, Reset and
// Compact must all fail with ErrLogPoisoned and nothing may block.
func TestPoisonedLogFailsEverything(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	fsys := iofault.NewFaultFS(dir)
	fsys.FailNthSync(1)
	l, err := wal.OpenSystemLogFS(fsys, dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&wal.Record{Kind: wal.KindTxnBegin, Txn: 1}); err != nil {
		t.Fatalf("append before poison: %v", err)
	}
	if err := l.Flush(); !errors.Is(err, wal.ErrLogPoisoned) {
		t.Fatalf("flush error = %v, want ErrLogPoisoned", err)
	}
	if err := l.Poisoned(); !errors.Is(err, wal.ErrLogPoisoned) {
		t.Fatalf("Poisoned() = %v", err)
	}
	if err := l.Append(&wal.Record{Kind: wal.KindTxnBegin, Txn: 2}); !errors.Is(err, wal.ErrLogPoisoned) {
		t.Fatalf("append after poison = %v, want ErrLogPoisoned", err)
	}
	if err := l.AppendAndFlush(&wal.Record{Kind: wal.KindTxnBegin, Txn: 3}); !errors.Is(err, wal.ErrLogPoisoned) {
		t.Fatalf("append-and-flush after poison = %v, want ErrLogPoisoned", err)
	}
	if err := l.Flush(); !errors.Is(err, wal.ErrLogPoisoned) {
		t.Fatalf("second flush = %v, want ErrLogPoisoned", err)
	}
	if err := l.Reset(); !errors.Is(err, wal.ErrLogPoisoned) {
		t.Fatalf("reset after poison = %v, want ErrLogPoisoned", err)
	}
	if err := l.Compact(0); err != nil && !errors.Is(err, wal.ErrLogPoisoned) {
		t.Fatalf("compact after poison = %v", err)
	}
	if err := l.Close(); !errors.Is(err, wal.ErrLogPoisoned) {
		t.Fatalf("close after poison = %v, want ErrLogPoisoned", err)
	}
}

// TestENOSPCDuringCheckpoint injects ENOSPC into a checkpoint image
// write: the checkpoint fails, the previous certified checkpoint stays
// current, and the database keeps running — a later, un-faulted
// checkpoint succeeds.
func TestENOSPCDuringCheckpoint(t *testing.T) {
	c := DefaultConfig()
	dir := filepath.Join(t.TempDir(), "db")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	fsys := iofault.NewFaultFS(dir)
	db, err := core.Open(CoreConfig(dir, fsys, c))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	anchorBefore, ok := db.Internals().Checkpoints.Anchor()
	if !ok {
		t.Fatal("no anchor after first checkpoint")
	}
	// The next write call hits the second checkpoint's image write (no
	// transactions run in between, so the next Write/WriteAt belongs to
	// the image or meta path).
	fsys.NoSpaceNth(nextWriteOrdinal(fsys))
	err = db.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint succeeded despite ENOSPC")
	}
	if !errors.Is(err, iofault.ErrNoSpace) {
		t.Fatalf("checkpoint error = %v, want ErrNoSpace in chain", err)
	}
	anchorAfter, ok := db.Internals().Checkpoints.Anchor()
	if !ok || anchorAfter != anchorBefore {
		t.Fatalf("failed checkpoint moved the anchor: %+v -> %+v", anchorBefore, anchorAfter)
	}
	// With space back, the next checkpoint completes.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("retry checkpoint: %v", err)
	}
	if a, _ := db.Internals().Checkpoints.Anchor(); a.SeqNo != anchorBefore.SeqNo+1 {
		t.Fatalf("retry checkpoint seq %d, want %d", a.SeqNo, anchorBefore.SeqNo+1)
	}
}

// TestTornCheckpointPageFallsBack injects a torn page (lying write: half
// the page persists, success is reported) into the CURRENT checkpoint
// image. Load must detect the mismatch against the per-page codeword
// table and recovery must fall back to the other ping-pong image,
// replaying the retained log from its older CK_end.
func TestTornCheckpointPageFallsBack(t *testing.T) {
	c := DefaultConfig()
	c.CheckpointEvery = 0 // no checkpoints beyond the post-load one
	// Fill page 0 well past its midpoint: a torn write persists only the
	// first half of the page, which is detectable only if the second half
	// held nonzero data (a fresh image file reads back zeros there).
	c.Slots = 56
	dir := filepath.Join(t.TempDir(), "db")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	fsys := iofault.NewFaultFS(dir)
	res := Run(dir, fsys, c) // load + ckpt(A) + updates, no further ckpt
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	// Reopen with a torn write armed: recovery's completion checkpoint
	// writes the other ping-pong image, and its first image write lies —
	// half persists, success is reported. The checkpoint certifies anyway
	// (the audit checks memory, not disk) and the anchor now names a
	// corrupt image.
	fsys2 := iofault.NewFaultFS(dir)
	fsys2.TornWriteNth(1)
	db, _, err := recovery.Open(CoreConfig(dir, fsys2, c), recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.Internals().Checkpoints.Anchor()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Plain Load must refuse the anchored image.
	if _, err := ckpt.Load(iofault.OS, dir); !errors.Is(err, ckpt.ErrImageCorrupt) {
		t.Fatalf("Load of torn image = %v, want ErrImageCorrupt", err)
	}
	// Recovery must converge via the fallback image.
	db2, rep, err := recovery.Open(CoreConfig(dir, nil, c), recovery.Options{})
	if err != nil {
		t.Fatalf("recovery with torn current image: %v", err)
	}
	defer db2.Close()
	if !rep.UsedFallbackImage {
		t.Fatalf("recovery did not use the fallback image (anchor was %+v)", a)
	}
	if err := db2.Audit(); err != nil {
		t.Fatalf("post-fallback audit: %v", err)
	}
	// The committed history is intact.
	arena := db2.Internals().Arena
	for s, want := range res.Expected {
		got := arena.Slice(res.Addrs[s], len(want))
		if string(got) != string(want) {
			t.Fatalf("slot %d after fallback recovery: %x, want %x", s, got, want)
		}
	}
}

// nextWriteOrdinal returns the 1-based ordinal the NEXT Write/WriteAt
// call will have, so tests can arm per-write failpoints "from now on".
func nextWriteOrdinal(fsys *iofault.FaultFS) uint64 {
	return fsys.Writes() + 1
}
