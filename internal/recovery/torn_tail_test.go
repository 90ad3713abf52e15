package recovery

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/protect"
	"repro/internal/wal"
)

// copyDBDir copies every regular file of a database directory into a
// fresh directory, so each torn-tail scenario mutates its own copy.
func copyDBDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// logFrame is one stable-log record's location in LSN units: the record
// [start, end) — end is the next record's LSN, or its frame's end — and
// the frame [frame, frameEnd) that holds it, one Append.
type logFrame struct {
	start, end      wal.LSN
	frame, frameEnd wal.LSN
	kind            wal.Kind
	txn             wal.TxnID
}

// scanFrames reads the full stable log layout: every record with its
// boundaries and its frame's, plus the log base (file offset of LSN x is
// logHeader + x - base) and the end of the valid prefix, short of the file
// end when a flush extended the file past its records.
func scanFrames(t *testing.T, dir string) (frames []logFrame, base wal.LSN, logEnd wal.LSN) {
	t.Helper()
	base, err := wal.LogBaseFS(iofault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := wal.OpenCursor(iofault.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
		r := cur.Record()
		f := logFrame{start: r.LSN, frame: r.LSN, frameEnd: cur.FrameEnd(), kind: r.Kind, txn: r.Txn}
		if n := len(frames); n > 0 && frames[n-1].frameEnd == f.frameEnd {
			f.frame = frames[n-1].frame
			frames[n-1].end = f.start
		}
		f.end = f.frameEnd
		frames = append(frames, f)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return frames, base, cur.End()
}

// tornTailScenarios names the records after CK_end in
// TestTornLogTailRecovery's history, in log order: two audit records, then
// per update transaction its begin, op-begin, physical redo, op-commit and
// commit. The names are the records' LSNs in the DALILOG1 format, which
// framed every record alone and in which the test was written; they are
// kept so that a scenario keeps its name when the format moves LSNs.
var tornTailScenarios = []int{
	554, 565, 578, 588, 604, 618, 644, 654, 664, 680, 694, 720, 730, 740, 756, 771,
	797, 807, 817, 833, 848, 874, 884, 894, 910, 924, 950, 960, 970, 986, 1000, 1026,
}

// TestTornLogTailRecovery cuts (and corrupts) the stable log at every
// record after CK_end — at its LSN, which is a frame boundary for a
// frame's first record and inside the frame for the others, and in its
// middle — and verifies the fail-stop recovery contract for each: recovery
// converges, the codeword audit is clean, and the state reflects exactly
// the transactions whose commit record survived intact — replay stops at
// the first torn or corrupt frame, never resurrecting a partial suffix or
// part of an Append.
func TestTornLogTailRecovery(t *testing.T) {
	cfg := core.Config{
		Dir:       t.TempDir(),
		ArenaSize: 1 << 18,
		Protect:   protect.Config{Kind: protect.KindDataCW, RegionSize: 64},
	}
	db, tb := setupTable(t, cfg, 4)

	// Committed post-checkpoint history: update i writes byte 0xC0+i at
	// offset 0 of slot i%4.
	type upd struct {
		slot uint32
		val  byte
		id   wal.TxnID
	}
	var upds []upd
	for i := 0; i < 6; i++ {
		v := byte(0xC0 + i)
		slot := uint32(i % 4)
		id := updateRec(t, db, tb, slot, []byte{v})
		upds = append(upds, upd{slot: slot, val: v, id: id})
	}
	db.Crash()

	loaded, err := ckpt.Load(iofault.OS, cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	ckEnd := loaded.Anchor.CKEnd
	frames, base, logEnd := scanFrames(t, cfg.Dir)

	// Each transaction's history survives a cut at LSN p iff its commit
	// frame ends at or before p.
	commitEnd := make(map[wal.TxnID]wal.LSN)
	for _, f := range frames {
		if f.kind == wal.KindTxnCommit {
			commitEnd[f.txn] = f.frameEnd
		}
	}
	for _, u := range upds {
		if _, ok := commitEnd[u.id]; !ok {
			t.Fatalf("no commit frame for update txn %d", u.id)
		}
	}

	// expected returns slot s's byte 0 after recovering a log whose last
	// intact frame ends at lastEnd.
	expected := func(s uint32, lastEnd wal.LSN) byte {
		v := byte(s + 1) // setupTable's fill
		for _, u := range upds {
			if u.slot == s && commitEnd[u.id] <= lastEnd {
				v = u.val
			}
		}
		return v
	}

	verify := func(t *testing.T, dir string, lastEnd wal.LSN) {
		t.Helper()
		c := cfg
		c.Dir = dir
		db2, tb2, _ := reopen(t, c, Options{})
		defer db2.Close()
		if err := db2.Audit(); err != nil {
			t.Fatalf("audit: %v", err)
		}
		for s := uint32(0); s < 4; s++ {
			want := expected(s, lastEnd)
			if got := readRec(t, db2, tb2, s); got[0] != want {
				t.Fatalf("slot %d = %#x, want %#x (last intact frame ends at %d)", s, got[0], want, lastEnd)
			}
		}
	}

	truncateLog := func(t *testing.T, dir string, at wal.LSN) {
		t.Helper()
		if err := os.Truncate(filepath.Join(dir, wal.LogFileName), 16+int64(at-base)); err != nil {
			t.Fatal(err)
		}
	}
	flipByte := func(t *testing.T, dir string, at wal.LSN) {
		t.Helper()
		path := filepath.Join(dir, wal.LogFileName)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[16+int(at-base)] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var tail []logFrame
	for _, f := range frames {
		if f.start >= ckEnd { // recovery's scan starts at CK_end; earlier records are history
			tail = append(tail, f)
		}
	}
	if len(tail) != len(tornTailScenarios) {
		t.Fatalf("%d records after CK_end, %d scenario names", len(tail), len(tornTailScenarios))
	}
	scenarios := 0
	for i, f := range tail {
		name := tornTailScenarios[i]
		mid := f.start + (f.end-f.start)/2

		// Cut at the record: its frame — all of it, for a record inside
		// one — and everything after is gone.
		t.Run(fmt.Sprintf("truncate@%d", name), func(t *testing.T) {
			dir := copyDBDir(t, cfg.Dir)
			truncateLog(t, dir, f.start)
			verify(t, dir, f.frame)
		})
		// Cut mid-record: the partial frame must be discarded.
		t.Run(fmt.Sprintf("truncate@%d.mid", name), func(t *testing.T) {
			dir := copyDBDir(t, cfg.Dir)
			truncateLog(t, dir, mid)
			verify(t, dir, f.frame)
		})
		// Flip a byte mid-record: the CRC refuses the frame, and — the
		// fail-stop part — every frame after it is ignored too, even
		// though they are intact.
		t.Run(fmt.Sprintf("corrupt@%d.mid", name), func(t *testing.T) {
			dir := copyDBDir(t, cfg.Dir)
			flipByte(t, dir, mid)
			verify(t, dir, f.frame)
		})
		scenarios += 3
	}
	// The unmutated log recovers everything.
	t.Run("intact", func(t *testing.T) {
		dir := copyDBDir(t, cfg.Dir)
		verify(t, dir, logEnd)
	})
	if scenarios < 10 {
		t.Fatalf("only %d torn-tail scenarios generated; workload too small", scenarios)
	}
}

// TestZeroFilledLogTailRecovery: a crash can leave the log extended but its
// last blocks never written, which reads back as zeros — and the flusher
// extends the file ahead of its records, so every crash does. Eight zero
// bytes look like a frame of length 0 whose checksum matches, so the walker
// must refuse an empty payload: the padding is a torn tail — recovery
// opens, cuts it off, and the next record written lands where it began.
func TestZeroFilledLogTailRecovery(t *testing.T) {
	cfg := core.Config{
		Dir:       t.TempDir(),
		ArenaSize: 1 << 18,
		Protect:   protect.Config{Kind: protect.KindDataCW, RegionSize: 64},
	}
	db, tb := setupTable(t, cfg, 4)
	updateRec(t, db, tb, 0, []byte{0xC0})
	updateRec(t, db, tb, 1, []byte{0xC1})
	db.Crash()
	_, base, logEnd := scanFrames(t, cfg.Dir)
	path := func(dir string) string { return filepath.Join(dir, wal.LogFileName) }

	for _, pad := range []int{8, 16, 4096} {
		t.Run(fmt.Sprintf("pad%d", pad), func(t *testing.T) {
			c := cfg
			c.Dir = copyDBDir(t, cfg.Dir)
			// Exactly pad zero bytes follow the valid prefix.
			if err := os.Truncate(path(c.Dir), 16+int64(logEnd-base)+int64(pad)); err != nil {
				t.Fatal(err)
			}

			db2, tb2, rep := reopen(t, c, Options{})
			if rep.RecordsScanned == 0 || readRec(t, db2, tb2, 0)[0] != 0xC0 || readRec(t, db2, tb2, 1)[0] != 0xC1 {
				t.Fatalf("committed updates lost: scanned %d records", rep.RecordsScanned)
			}
			if err := db2.Audit(); err != nil {
				t.Fatalf("audit: %v", err)
			}
			id := updateRec(t, db2, tb2, 2, []byte{0xC2})
			db2.Crash()

			// The new commit ends the valid prefix, past where the padding
			// began, and every byte after it is zero: the padding was cut
			// off at the reopen, and what the file holds beyond the commit
			// is the hole the flusher's extension left.
			after, _, end := scanFrames(t, c.Dir)
			if last := after[len(after)-1]; last.kind != wal.KindTxnCommit || last.txn != id || last.frameEnd != end || end <= logEnd {
				t.Fatalf("last scanned record %+v, valid prefix ends at %d, padding began at %d; want the commit of txn %d at the end", last, end, logEnd, id)
			}
			b, err := os.ReadFile(path(c.Dir))
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range b[16+int(end-base):] {
				if x != 0 {
					t.Fatalf("byte %d past the valid end %d is %#x, want a zero tail", i, end, x)
				}
			}
			// An open that walks the file itself ends where the scan does.
			l, err := wal.OpenSystemLogFS(iofault.OS, c.Dir, 4096, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l.CloseWithoutFlush()
			if got := l.End(); got != end {
				t.Fatalf("open ends at %d, scan at %d", got, end)
			}
		})
	}
}
