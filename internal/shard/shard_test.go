package shard

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/obs"
	"repro/internal/wal"
)

func testConfig(t *testing.T, dir string, k int) Config {
	t.Helper()
	return Config{
		Dir:         dir,
		Shards:      k,
		ArenaSize:   1 << 17,
		PageSize:    4096,
		LockTimeout: 2 * time.Second,
		ValueSize:   64,
		Capacity:    256,
	}
}

func mustOpen(t *testing.T, cfg Config) (*Router, *OpenReport) {
	t.Helper()
	r, rep, err := Open(cfg)
	if err != nil {
		t.Fatalf("shard.Open: %v", err)
	}
	return r, rep
}

// keysOnShard returns n distinct keys that all route to shard want.
func keysOnShard(t *testing.T, r *Router, want, n int) []uint64 {
	t.Helper()
	var keys []uint64
	for k := uint64(1); len(keys) < n && k < 1<<20; k++ {
		if r.ShardFor(k) == want {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("could not find %d keys on shard %d", n, want)
	}
	return keys
}

// crossShardKeys returns one key per shard, covering every shard.
func crossShardKeys(t *testing.T, r *Router) []uint64 {
	t.Helper()
	keys := make([]uint64, r.Shards())
	for i := range keys {
		keys[i] = keysOnShard(t, r, i, 1)[0]
	}
	return keys
}

func TestKVBasic(t *testing.T) {
	r, rep := mustOpen(t, testConfig(t, t.TempDir(), 1))
	defer r.Close()
	if !rep.Fresh {
		t.Fatal("expected fresh database")
	}

	txn := r.Begin()
	if err := txn.Put(7, []byte("hello")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, err := txn.Get(7); err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := txn.Put(7, []byte("world")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if got, _ := txn.Get(7); string(got) != "world" {
		t.Fatalf("after overwrite Get = %q", got)
	}
	if err := txn.Delete(7); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := txn.Get(7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
	if err := txn.Put(7, []byte("again")); err != nil {
		t.Fatalf("re-insert: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double Commit = %v, want ErrTxnDone", err)
	}

	txn = r.Begin()
	if got, err := txn.Get(7); err != nil || string(got) != "again" {
		t.Fatalf("Get after commit = %q, %v", got, err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
}

func TestAbortRollsBackAllShards(t *testing.T) {
	r, _ := mustOpen(t, testConfig(t, t.TempDir(), 4))
	defer r.Close()
	keys := crossShardKeys(t, r)

	txn := r.Begin()
	for _, k := range keys {
		if err := txn.Put(k, []byte("x")); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if got := txn.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	if err := txn.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	check := r.Begin()
	defer check.Abort()
	for _, k := range keys {
		if _, err := check.Get(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d visible after abort: %v", k, err)
		}
	}
}

// syncCountFS counts the file Syncs that reach a FaultFS, so a test can
// arm FailNthSync at "the next sync from now".
type syncCountFS struct {
	*iofault.FaultFS
	syncs atomic.Uint64
}

func (fs *syncCountFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := fs.FaultFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncCountFile{f, &fs.syncs}, nil
}

type syncCountFile struct {
	iofault.File
	syncs *atomic.Uint64
}

func (f syncCountFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// TestFailedPrepareLeavesNoParticipantPrepared fails the fsync of one
// participant's prepare. The commit must fail and roll back every
// participant: none may stay prepared, and the surviving shard's key must
// be free for the next transaction — a participant left prepared keeps
// its locks until restart, so the next writer times out on them.
func TestFailedPrepareLeavesNoParticipantPrepared(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(dir)
	fsys := &syncCountFS{FaultFS: ffs}
	cfg := testConfig(t, dir, 2)
	cfg.FS = fsys
	cfg.LockTimeout = 200 * time.Millisecond
	r, _ := mustOpen(t, cfg)
	defer r.Close()
	keys := crossShardKeys(t, r)

	txn := r.Begin()
	for _, k := range keys {
		if err := txn.Put(k, []byte("x")); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	// The prepares run in parallel; whichever forces its log first fails.
	ffs.FailNthSync(fsys.syncs.Load() + 1)
	if err := txn.Commit(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("Commit = %v, want the injected prepare failure", err)
	}
	for s, p := range txn.parts {
		if p.Prepared() {
			t.Errorf("shard %d: participant still prepared after a failed prepare", s)
		}
	}

	survivor := -1
	for s := 0; s < r.Shards(); s++ {
		if r.DB(s).Internals().Log.Poisoned() == nil {
			survivor = s
		}
	}
	if survivor < 0 {
		t.Fatal("every shard's log is poisoned; want exactly the failed one")
	}
	next := r.Begin()
	if err := next.Put(keys[survivor], []byte("y")); err != nil {
		t.Fatalf("shard %d: follow-up Put = %v (lock timeout: %v)", survivor, err, errors.Is(err, core.ErrLockTimeout))
	}
	if err := next.Commit(); err != nil {
		t.Fatalf("shard %d: follow-up Commit: %v", survivor, err)
	}
}

// TestEncodeDecisionsDeterministic pins the checkpointed decision table's
// encoding: one table encodes to the same bytes every time (map order
// must not leak into durable metadata), and the bytes decode back to it.
func TestEncodeDecisionsDeterministic(t *testing.T) {
	table := make(map[uint64]bool)
	for i := uint64(0); i < 64; i++ {
		table[makeGID(int(i%3), 7919*i+1)] = i%2 == 0
	}
	want := encodeDecisions(table)
	for i := 0; i < 20; i++ {
		if got := encodeDecisions(table); !bytes.Equal(got, want) {
			t.Fatalf("encode %d gave different bytes than the first", i+2)
		}
	}
	back, err := decodeDecisions(want)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(back, table) {
		t.Fatalf("decoded table %v, want %v", back, table)
	}
}

// TestFastpathNoTwoPhaseRecords pins the acceptance criterion that
// single-shard transactions pay no 2PC overhead: after a burst of
// single-shard commits on a multi-shard router, no shard's log contains a
// prepare or decision record, and only the fastpath counter moved.
func TestFastpathNoTwoPhaseRecords(t *testing.T) {
	dir := t.TempDir()
	r, _ := mustOpen(t, testConfig(t, dir, 4))

	const txns = 16
	for i := 0; i < txns; i++ {
		s := i % r.Shards()
		keys := keysOnShard(t, r, s, 3)
		txn := r.Begin()
		for _, k := range keys {
			if err := txn.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}

	snap := r.Metrics()["router"]
	if got := snap.Counter(obs.NameShardFastpathCommits); got != txns {
		t.Fatalf("fastpath commits = %d, want %d", got, txns)
	}
	if got := snap.Counter(obs.NameShardCrossCommits); got != 0 {
		t.Fatalf("cross commits = %d, want 0", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	for i := 0; i < 4; i++ {
		sd := shardDir(dir, i)
		cur, err := wal.OpenCursor(iofault.OS, sd, nil)
		if err != nil {
			t.Fatalf("OpenCursor(%s): %v", sd, err)
		}
		for cur.Next() {
			if k := cur.Record().Kind; k == wal.KindTxnPrepare || k == wal.KindTxnDecision {
				t.Errorf("shard %d: unexpected %s record for single-shard workload", i, k)
			}
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("scan shard %d: %v", i, err)
		}
	}
}

func TestCrossShardCommitSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir, 4)
	r, _ := mustOpen(t, cfg)
	keys := crossShardKeys(t, r)

	txn := r.Begin()
	for i, k := range keys {
		if err := txn.Put(k, []byte(fmt.Sprintf("shard%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("cross-shard Commit: %v", err)
	}

	snap := r.Metrics()["router"]
	if got := snap.Counter(obs.NameShardCrossCommits); got != 1 {
		t.Fatalf("cross commits = %d, want 1", got)
	}
	if got := snap.Counter(obs.NameShardFastpathCommits); got != 0 {
		t.Fatalf("fastpath commits = %d, want 0", got)
	}

	// Dirty close: reopen runs restart recovery on every shard.
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2, rep := mustOpen(t, cfg)
	defer r2.Close()
	if rep.Fresh {
		t.Fatal("reopen reported fresh database")
	}
	if rep.InDoubtCommitted != 0 || rep.InDoubtAborted != 0 {
		t.Fatalf("clean reopen resolved in-doubt txns: %+v", rep)
	}
	check := r2.Begin()
	defer check.Abort()
	for i, k := range keys {
		got, err := check.Get(k)
		if err != nil || string(got) != fmt.Sprintf("shard%d", i) {
			t.Fatalf("key %d after reopen = %q, %v", k, got, err)
		}
	}
}

// TestCrossShardTortureEveryCrashPoint is the PR's atomicity acceptance
// test: a cross-shard transaction is committed with a simulated crash at
// every I/O point in turn (including points inside the parallel shard
// opens), the durable state is materialized, and the recovered database
// must show either every key's new value or every key's old value —
// never a mix. The campaign must observe both outcomes, and must resolve
// at least one transaction through the in-doubt path (prepared records
// durable, decision applied or presumed abort at open).
func TestCrossShardTortureEveryCrashPoint(t *testing.T) {
	runCrossShardTorture(t, 2)
}

// TestCrossShardTortureEveryCrashPointMultiStream reruns the campaign
// with three participants: the coordinator's decision now waits on two
// remote prepares, crash points land inside three shard logs, and a crash
// can leave one participant prepared, one committed and one untouched —
// recovery must still converge every shard to the same outcome.
func TestCrossShardTortureEveryCrashPointMultiStream(t *testing.T) {
	runCrossShardTorture(t, 3)
}

func runCrossShardTorture(t *testing.T, shards int) {
	if testing.Short() {
		t.Skip("torture campaign is long; skipped with -short")
	}

	mkCfg := func(dir string) Config { return testConfig(t, dir, shards) }
	seed := filepath.Join(t.TempDir(), "seed")

	// Build the seed state once: baseline values for one key per shard.
	cfg := mkCfg(seed)
	r, _ := mustOpen(t, cfg)
	keys := crossShardKeys(t, r)
	txn := r.Begin()
	for _, k := range keys {
		if err := txn.Put(k, []byte("old")); err != nil {
			t.Fatalf("seed Put: %v", err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("seed Commit: %v", err)
	}
	if err := r.CloseClean(); err != nil {
		t.Fatalf("seed CloseClean: %v", err)
	}

	// scenario opens the work copy through the fault FS and runs the
	// cross-shard update. Errors from the armed crash are expected.
	scenario := func(work string, ffs *iofault.FaultFS) {
		wcfg := mkCfg(work)
		wcfg.FS = ffs
		wr, _, err := Open(wcfg)
		if err != nil {
			return // crashed during a shard open
		}
		defer wr.Close()
		wt := wr.Begin()
		for _, k := range keys {
			if err := wt.Put(k, []byte("new")); err != nil {
				return
			}
		}
		_ = wt.Commit()
	}

	// Fault-free calibration run to size the crash-point space.
	calib := filepath.Join(t.TempDir(), "calib")
	copyTree(t, seed, calib)
	ffs := iofault.NewFaultFS(calib)
	scenario(calib, ffs)
	points := ffs.Points()
	if points == 0 {
		t.Fatal("calibration run consumed no I/O points")
	}
	t.Logf("torturing %d crash points", points)

	var committed, aborted, inDoubtC, inDoubtA int
	for k := int64(0); k < int64(points); k++ {
		work := filepath.Join(t.TempDir(), fmt.Sprintf("crash-%d", k))
		copyTree(t, seed, work)
		ffs := iofault.NewFaultFS(work)
		ffs.CrashAtPoint(k)
		scenario(work, ffs)
		if !ffs.Crashed() {
			t.Fatalf("point %d: crash failpoint never fired", k)
		}

		recoverDir := filepath.Join(t.TempDir(), fmt.Sprintf("recover-%d", k))
		if err := ffs.MaterializeDurable(recoverDir); err != nil {
			t.Fatalf("point %d: materialize: %v", k, err)
		}
		rr, rep, err := Open(mkCfg(recoverDir))
		if err != nil {
			t.Fatalf("point %d: recovery open: %v", k, err)
		}
		inDoubtC += rep.InDoubtCommitted
		inDoubtA += rep.InDoubtAborted

		check := rr.Begin()
		vals := make([]string, len(keys))
		for i, key := range keys {
			got, err := check.Get(key)
			if err != nil {
				t.Fatalf("point %d: Get(%d) after recovery: %v", k, key, err)
			}
			vals[i] = string(got)
		}
		check.Abort()
		if err := rr.Audit(); err != nil {
			t.Fatalf("point %d: post-recovery audit: %v", k, err)
		}
		rr.Close()

		switch {
		case all(vals, "new"):
			committed++
		case all(vals, "old"):
			aborted++
		default:
			t.Fatalf("point %d: atomicity violated: values %q", k, vals)
		}
	}

	t.Logf("outcomes: %d committed, %d aborted; in-doubt resolved: %d commit, %d abort",
		committed, aborted, inDoubtC, inDoubtA)
	if committed == 0 || aborted == 0 {
		t.Fatalf("campaign saw only one outcome (%d committed, %d aborted)", committed, aborted)
	}
	if inDoubtC == 0 {
		t.Error("no crash point exercised in-doubt commit resolution")
	}
	if inDoubtA == 0 {
		t.Error("no crash point exercised in-doubt (presumed) abort resolution")
	}
}

func all(vals []string, want string) bool {
	for _, v := range vals {
		if v != want {
			return false
		}
	}
	return true
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copyTree %s -> %s: %v", src, dst, err)
	}
}

func TestRoutingIsStable(t *testing.T) {
	r, _ := mustOpen(t, testConfig(t, t.TempDir(), 8))
	defer r.Close()
	hits := make([]int, 8)
	for k := uint64(0); k < 4096; k++ {
		s := r.ShardFor(k)
		if s2 := r.ShardFor(k); s2 != s {
			t.Fatalf("ShardFor(%d) unstable: %d then %d", k, s, s2)
		}
		hits[s]++
	}
	for i, h := range hits {
		// 4096 keys over 8 shards: expect ~512 per shard; a shard with
		// under a quarter of its share means the hash is badly skewed.
		if h < 128 {
			t.Fatalf("shard %d got only %d of 4096 keys", i, h)
		}
	}
}

func TestValueSizeLimit(t *testing.T) {
	r, _ := mustOpen(t, testConfig(t, t.TempDir(), 1))
	defer r.Close()
	txn := r.Begin()
	defer txn.Abort()
	if err := txn.Put(1, bytes.Repeat([]byte("x"), 65)); err == nil {
		t.Fatal("Put over ValueSize succeeded")
	}
	if err := txn.Put(1, bytes.Repeat([]byte("x"), 64)); err != nil {
		t.Fatalf("Put at ValueSize: %v", err)
	}
}
