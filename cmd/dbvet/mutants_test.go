package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var runMutants = flag.Bool("mutants", false, "build every test-caught mutant through an -overlay and require its packages' tests to fail")

// A mutant is one realistic instance of the fault a dbvet pass (or the
// metric-name contract test) exists for, written into real engine code:
// replacing old, which must occur exactly once in file, with new. The
// audit applies it through go test -overlay, so the tree is never edited.
//
// pkgs are the packages whose tier-1 tests catch the mutant and test is
// one test among them that must fail. A row with no pkgs is caught by no
// test: the audit only checks that it builds. DESIGN.md
// "Mutation audit" names every row's detectors, dbvet passes included.
type mutant struct {
	name string
	pass string
	file string
	old  string
	new  string
	pkgs []string
	test string
}

var mutants = []mutant{
	// guardedwrite: arena stores only through the update interface.
	{
		name: "setBit-direct-store", pass: "guardedwrite", file: "internal/heap/ops.go",
		old: `	u, err := txn.BeginUpdate(addr, 1)
	if err != nil {
		return err
	}
	if on {
		u.Bytes()[0] |= 1 << bit
	} else {
		u.Bytes()[0] &^= 1 << bit
	}
	return u.End()`,
		new: `	b := txn.DB().Internals().Arena.Slice(addr, 1)
	if on {
		b[0] |= 1 << bit
	} else {
		b[0] &^= 1 << bit
	}
	return nil`,
		pkgs: []string{"./internal/heap"}, test: "TestConcurrentBitmapByteNeighbors",
	},
	{
		name: "writeEntry-direct-tombstone", pass: "guardedwrite", file: "internal/hashidx/hashidx.go",
		old: `func (ix *Index) writeEntry(txn *core.Txn, slot int, state, key uint64, rid heap.RID) error {
`,
		new: `func (ix *Index) writeEntry(txn *core.Txn, slot int, state, key uint64, rid heap.RID) error {
	if state == stateTombstone {
		copy(txn.DB().Internals().Arena.Slice(ix.slotAddr(slot), entrySize), encodeEntry(state, key, rid))
		return nil
	}
`,
		pkgs: []string{"./internal/hashidx"}, test: "TestInsertLookupDelete",
	},
	{
		name: "writeRecord-direct-copy", pass: "guardedwrite", file: "internal/heap/ops.go",
		old: `	u, err := txn.BeginUpdate(t.RecordAddr(slot)+mem.Addr(off), len(data))
	if err != nil {
		return err
	}
	copy(u.Bytes(), data)
	return u.End()`,
		new: `	copy(txn.DB().Internals().Arena.Slice(t.RecordAddr(slot)+mem.Addr(off), len(data)), data)
	return nil`,
		pkgs: []string{"./internal/heap"}, test: "TestUpdateField",
	},

	// cwpair: every update folded into its codeword, S0 and S1 together.
	{
		name: "EndUpdate-skips-1-byte-fold", pass: "cwpair", file: "internal/protect/cw.go",
		old: `		defer tok.guard.Release()
		return s.tab.ApplyUpdate(tok.addr, old, new)`,
		new: `		defer tok.guard.Release()
		if len(new) == 1 {
			return nil
		}
		return s.tab.ApplyUpdate(tok.addr, old, new)`,
		pkgs: []string{"./internal/protect"}, test: "TestCodewordSchemesMaintainAndAudit",
	},
	{
		name: "deferred-EndUpdate-skips-1-byte-fold", pass: "cwpair", file: "internal/protect/cw.go",
		old: `	deltas, err := s.tab.UpdateDeltas(nil, tok.addr, old, new)
`,
		new: `	if len(new) == 1 {
		tok.guard.Release()
		return nil
	}
	deltas, err := s.tab.UpdateDeltas(nil, tok.addr, old, new)
`,
		pkgs: []string{"./internal/protect"}, test: "TestDeferredThresholdDrains",
	},
	{
		name: "xorInto-drops-S1", pass: "cwpair", file: "internal/region/codeword.go",
		old: `	t.cws[r] ^= delta
	if s1 != 0 {
		t.s1[r] ^= s1
	}
`,
		new: `	t.cws[r] ^= delta
`,
		pkgs: []string{"./internal/region"}, test: "TestApplyUpdateMaintainsPlanes",
	},
	{
		name: "recomputeRegion-drops-S1", pass: "cwpair", file: "internal/region/codeword.go",
		old: `	t.cws[r] = cw
	if t.hasS1() {
		t.s1[r] = s1
	}
`,
		new: `	t.cws[r] = cw
	_ = s1
`,
		pkgs: []string{"./internal/region"}, test: "TestRepairSingleWord",
	},
	{
		name: "rollback-skips-refold", pass: "cwpair", file: "internal/core/txn.go",
		old: `	if u.CodewordPending {
		return t.db.scheme.AbortUpdate(tok)
	}
	return t.db.scheme.EndUpdate(tok, cur, u.Before)`,
		new:  `	return t.db.scheme.AbortUpdate(tok)`,
		pkgs: []string{"./internal/core"}, test: "TestAbortOpMidway",
	},

	// The metric-name contract test, which replaced the obsnames pass.
	{
		name: "undeclared-metric-name", pass: "obsnames", file: "internal/core/db.go",
		old:  `		mOps:           reg.Counter(obs.NameOps),`,
		new:  `		mOps:           reg.Counter("core.operations"),`,
		pkgs: []string{"."}, test: "TestMetricNameContract",
	},
	{
		name: "metric-registered-as-wrong-kind", pass: "obsnames", file: "internal/core/db.go",
		old:  `		mAudits:        reg.Counter(obs.NameAuditPasses),`,
		new:  `		mAudits:        reg.Counter(obs.NameAuditPassNS),`,
		pkgs: []string{"."}, test: "TestMetricNameContract",
	},

	// latchorder.
	{
		name: "Poisoned-bare-read", pass: "latchorder", file: "internal/wal/systemlog.go",
		old: `func (l *SystemLog) Poisoned() error {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.poisoned`,
		new: `func (l *SystemLog) Poisoned() error {
	return l.poisoned`,
	},
	{
		name: "Anchor-bare-read", pass: "latchorder", file: "internal/ckpt/ckpt.go",
		old: `func (s *Set) Anchor() (Anchor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.anchor, s.haveAnchor`,
		new: `func (s *Set) Anchor() (Anchor, bool) {
	return s.anchor, s.haveAnchor`,
	},

	// iopath.
	{
		name: "ckpt-Open-anchor-via-os", pass: "iopath", file: "internal/ckpt/ckpt.go",
		old: `	b, err := fsys.ReadFile(filepath.Join(dir, AnchorFileName))
	switch {`,
		new: `	b, err := os.ReadFile(filepath.Join(dir, AnchorFileName))
	switch {`,
		pkgs: []string{"./internal/ckpt"}, test: "TestOpenAnchorReadFault",
	},
	{
		name: "loadImage-via-os", pass: "iopath", file: "internal/ckpt/ckpt.go",
		old:  `	img, err := fsys.ReadFile(filepath.Join(dir, imageName(image)))`,
		new:  `	img, err := os.ReadFile(filepath.Join(dir, imageName(image)))`,
		pkgs: []string{"./internal/recovery"}, test: "TestRecoveryObservesCorruptImageRead",
	},

	// errflow.
	{
		name: "Commit-sentinel-by-equality", pass: "errflow", file: "internal/core/txn.go",
		old:  `		if errors.Is(err, wal.ErrFlushWaitCanceled) {`,
		new:  `		if err == wal.ErrFlushWaitCanceled {`,
		pkgs: []string{"./internal/core"}, test: "TestCommitUnresolvedOnCanceledFlushWait",
	},
	{
		name: "flush-drops-sync-error", pass: "errflow", file: "internal/wal/systemlog.go",
		old:  `			serr = l.f.Sync()`,
		new:  `			l.f.Sync()`,
		pkgs: []string{"./internal/wal"}, test: "TestPoisonUnderConcurrency",
	},

	// twophase.
	{
		name: "failed-prepare-skips-abortParts", pass: "twophase", file: "internal/shard/txn.go",
		old: `		t.abortParts()
		t.r.mCrossAb.Inc()`,
		new:  `		t.r.mCrossAb.Inc()`,
		pkgs: []string{"./internal/shard"}, test: "TestFailedPrepareLeavesNoParticipantPrepared",
	},
	{
		name: "phase-2-before-decision", pass: "twophase", file: "internal/shard/txn.go",
		old: `	if err := t.r.recordDecision(coord, gid, true); err != nil {
		// The decision may or may not be durable. Do NOT roll anything
		// back: if the record made it to disk, an abort here would break
		// atomicity. Leave every participant prepared; restart recovery
		// resolves them (commit if the decision survived, presumed abort
		// if not — either way, all participants agree).
		t.r.mCrossAb.Inc()
		return fmt.Errorf("shard: 2pc decision for gid %#x: %w", gid, err)
	}

	// Phase 2: apply the decision on every participant in parallel. A
	// participant failure here (poisoned log) leaves the decision in the
	// coordinator's table; that shard's next recovery finishes the commit.
	err := t.eachPart(func(s int) error { return t.parts[s].CommitPrepared() })`,
		new: `	err := t.eachPart(func(s int) error { return t.parts[s].CommitPrepared() })
	if derr := t.r.recordDecision(coord, gid, true); derr != nil {
		t.r.mCrossAb.Inc()
		return fmt.Errorf("shard: 2pc decision for gid %#x: %w", gid, derr)
	}`,
		pkgs: []string{"./internal/shard"}, test: "TestCrossShardTortureEveryCrashPoint",
	},

	// ctxflow.
	// Commit is not a *Ctx API, so ctxflow does not look at it; the test
	// that cancels a commit mid group-commit wait does.
	{
		name: "Commit-waits-on-Background", pass: "ctxflow", file: "internal/core/txn.go",
		old: `	err := t.db.log.AppendAndFlushCtx(t.ctx, t.entry.Redo...)
	t.entry.Redo = t.entry.Redo[:0]
	t.db.barrier.RUnlock()
	if err != nil {
		if errors.Is(err, wal.ErrFlushWaitCanceled) {`,
		new: `	err := t.db.log.AppendAndFlushCtx(context.Background(), t.entry.Redo...)
	t.entry.Redo = t.entry.Redo[:0]
	t.db.barrier.RUnlock()
	if err != nil {
		if errors.Is(err, wal.ErrFlushWaitCanceled) {`,
		pkgs: []string{"./internal/core"}, test: "TestCommitUnresolvedOnCanceledFlushWait",
	},
	{
		name: "shard-part-drops-ctx", pass: "ctxflow", file: "internal/shard/txn.go",
		old: `	p, err := t.r.units[s].db.BeginCtx(t.ctx)`,
		new: `	p, err := t.r.units[s].db.BeginCtx(context.Background())`,
	},
	{
		name: "AppendAndFlushCtx-drops-ctx", pass: "ctxflow", file: "internal/wal/systemlog.go",
		old: `	l.appendLocked(recs)
	return l.flushToLocked(ctx, l.endLocked())`,
		new: `	l.appendLocked(recs)
	return l.flushToLocked(context.Background(), l.endLocked())`,
		pkgs: []string{"./internal/core"}, test: "TestCommitUnresolvedOnCanceledFlushWait",
	},

	// determinism.
	{
		name: "encodeDecisions-unsorted", pass: "determinism", file: "internal/shard/twopc.go",
		old:  `	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })`,
		new:  `	_ = sort.Slice`,
		pkgs: []string{"./internal/shard"}, test: "TestEncodeDecisionsDeterministic",
	},
	{
		name: "deleted-list-unsorted", pass: "determinism", file: "internal/recovery/restart.go",
		old: `	sort.Slice(report.Deleted, func(i, j int) bool { return report.Deleted[i].ID < report.Deleted[j].ID })
`,
		new: ``,
	},
}

// TestMutants is the mutation audit behind DESIGN.md's "Mutation audit"
// table. Every row's snippet must still occur exactly once, so the table
// cannot silently rot; with -mutants (make mutants) every row is also built
// through an overlay, and for a test-caught row its packages' tests must
// fail, with the named test among the failures:
//
//	go test ./cmd/dbvet -run TestMutants -mutants
func TestMutants(t *testing.T) {
	const root = "../.."
	for _, m := range mutants {
		t.Run(m.pass+"/"+m.name, func(t *testing.T) {
			path, err := filepath.Abs(filepath.Join(root, m.file))
			if err != nil {
				t.Fatal(err)
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s: the mutant's snippet occurs %d times, want exactly 1; update the row", m.file, n)
			}
			if !*runMutants {
				return
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			if len(m.pkgs) == 0 {
				// Caught by no test: the mutant must still build, so the row
				// stays a program dbvet can be pointed at.
				cmd := exec.Command("go", "build", "-overlay="+overlayPath, "./"+filepath.Dir(m.file))
				cmd.Dir = root
				if out, err := cmd.CombinedOutput(); err != nil {
					t.Fatalf("the mutant does not build:\n%s", out)
				}
				return
			}
			args := append([]string{"test", "-count=1", "-vet=off", "-timeout=5m", "-overlay=" + overlayPath}, m.pkgs...)
			cmd := exec.Command("go", args...)
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			switch {
			case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Fatalf("the mutant does not build:\n%s", out)
			case err == nil:
				t.Fatalf("go test %s passes with the mutant applied", strings.Join(m.pkgs, " "))
			case !bytes.Contains(out, []byte("--- FAIL: "+m.test+" (")):
				t.Fatalf("go test %s fails, but not in %s:\n%s", strings.Join(m.pkgs, " "), m.test, out)
			}
		})
	}
}
