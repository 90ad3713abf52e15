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

// logFrame is one stable-log record's location: [start, end) in LSN
// units.
type logFrame struct {
	start, end wal.LSN
	kind       wal.Kind
	txn        wal.TxnID
}

// scanFrames reads the full stable log layout: every frame with its
// boundaries, plus the log base (file offset of LSN x is
// logHeader + x - base).
func scanFrames(t *testing.T, dir string) (frames []logFrame, base wal.LSN, logEnd wal.LSN) {
	t.Helper()
	base, err := wal.LogBaseFS(iofault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, wal.LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	logEnd = base + wal.LSN(fi.Size()-16)
	cur, err := wal.OpenCursor(iofault.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
		r := cur.Record()
		frames = append(frames, logFrame{start: r.LSN, kind: r.Kind, txn: r.Txn})
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if i+1 < len(frames) {
			frames[i].end = frames[i+1].start
		} else {
			frames[i].end = logEnd
		}
	}
	return frames, base, logEnd
}

// TestTornLogTailRecovery cuts (and corrupts) the stable log at every
// record boundary after CK_end, at mid-record positions, and verifies
// the fail-stop recovery contract for each: recovery converges, the
// codeword audit is clean, and the state reflects exactly the
// transactions whose commit record survived intact — replay stops at the
// first torn or corrupt frame, never resurrecting a partial suffix.
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
			commitEnd[f.txn] = f.end
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

	scenarios := 0
	for _, f := range frames {
		if f.start < ckEnd {
			continue // recovery's scan starts at CK_end; earlier frames are history
		}
		mid := f.start + (f.end-f.start)/2

		// Cut exactly at the frame boundary: this frame and everything
		// after is gone.
		t.Run(fmt.Sprintf("truncate@%d", f.start), func(t *testing.T) {
			dir := copyDBDir(t, cfg.Dir)
			truncateLog(t, dir, f.start)
			verify(t, dir, f.start)
		})
		scenarios++

		if mid > f.start {
			// Cut mid-frame: the partial frame must be discarded.
			t.Run(fmt.Sprintf("truncate@%d.mid", f.start), func(t *testing.T) {
				dir := copyDBDir(t, cfg.Dir)
				truncateLog(t, dir, mid)
				verify(t, dir, f.start)
			})
			// Flip a byte mid-frame: the CRC refuses the frame, and — the
			// fail-stop part — every frame after it is ignored too, even
			// though they are intact.
			t.Run(fmt.Sprintf("corrupt@%d.mid", f.start), func(t *testing.T) {
				dir := copyDBDir(t, cfg.Dir)
				flipByte(t, dir, mid)
				verify(t, dir, f.start)
			})
			scenarios += 2
		}
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
// last blocks never written, which reads back as zeros. Eight zero bytes
// look like a frame of length 0 whose checksum matches, so the walker must
// refuse an empty payload: the padding is a torn tail — recovery opens,
// cuts it off, and the next record written lands where it began.
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
	_, _, logEnd := scanFrames(t, cfg.Dir)

	for _, pad := range []int{8, 16, 4096} {
		t.Run(fmt.Sprintf("pad%d", pad), func(t *testing.T) {
			c := cfg
			c.Dir = copyDBDir(t, cfg.Dir)
			f, err := os.OpenFile(filepath.Join(c.Dir, wal.LogFileName), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(make([]byte, pad)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			db2, tb2, rep := reopen(t, c, Options{})
			if rep.RecordsScanned == 0 || readRec(t, db2, tb2, 0)[0] != 0xC0 || readRec(t, db2, tb2, 1)[0] != 0xC1 {
				t.Fatalf("committed updates lost: scanned %d records", rep.RecordsScanned)
			}
			if err := db2.Audit(); err != nil {
				t.Fatalf("audit: %v", err)
			}
			id := updateRec(t, db2, tb2, 2, []byte{0xC2})
			db2.Crash()

			// The valid prefix now spans the whole file — no zeros left
			// behind the records — and ends with the new commit.
			after, _, end := scanFrames(t, c.Dir)
			cur, err := wal.OpenCursor(iofault.OS, c.Dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := cur.End(); got != end || end <= logEnd {
				t.Fatalf("valid prefix ends at %d, file at %d, padding began at %d", got, end, logEnd)
			}
			if last := after[len(after)-1]; last.kind != wal.KindTxnCommit || last.txn != id {
				t.Fatalf("last scanned record %+v, want the commit of txn %d", last, id)
			}
		})
	}
}
