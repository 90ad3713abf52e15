package wal

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/iofault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/region"
)

// randomBatch draws the records of one Append: every kind, a few
// transactions that repeat and alternate (and none, as audits log), op
// commits that match the nearest op-begin of the frame, an outer one or
// none, compensation, and codewords.
func randomBatch(rng *rand.Rand) []*Record {
	u64 := func() uint64 { return rng.Uint64() >> uint(rng.Intn(64)) }
	blob := func(max int) []byte {
		b := make([]byte, rng.Intn(max))
		rng.Read(b)
		return b
	}
	txns := []TxnID{0, TxnID(1 + rng.Intn(3)), TxnID(u64())}
	txn := txns[rng.Intn(len(txns))]
	var open []*Record // op-begins of the batch not yet committed
	recs := make([]*Record, 1+rng.Intn(12))
	for i := range recs {
		if rng.Intn(4) == 0 {
			txn = txns[rng.Intn(len(txns))]
		}
		r := &Record{Kind: Kind(1 + rng.Intn(int(KindTxnDecision))), Txn: txn}
		switch r.Kind {
		case KindPhysRedo, KindRead:
			r.Addr = mem.Addr(u64())
			if r.Kind == KindPhysRedo {
				r.Data = blob(40)
			} else {
				r.Len = int(u64() >> 1)
			}
			if rng.Intn(2) == 0 {
				r.HasCW, r.CW = true, region.Codeword(rng.Uint64())
			}
		case KindOpBegin:
			r.Level, r.Key = uint8(rng.Intn(3)), ObjectKey(u64())
			open = append(open, r)
		case KindOpCommit:
			r.Level, r.Key = uint8(rng.Intn(3)), ObjectKey(u64())
			if n := len(open); n > 0 && rng.Intn(4) > 0 {
				r.Level, r.Key = open[n-1].Level, open[n-1].Key
				open = open[:n-1]
			}
			r.Compensation = rng.Intn(4) == 0
			r.Undo = LogicalUndo{Op: uint8(rng.Intn(256)), Key: r.Key, Args: blob(20)}
			if rng.Intn(3) == 0 {
				r.Undo.Key = ObjectKey(u64())
			}
		case KindTxnPrepare:
			r.GID = u64()
		case KindTxnDecision:
			r.GID, r.Decision = u64(), rng.Intn(2) == 0
		case KindAuditBegin:
			r.AuditSN = u64()
		case KindAuditEnd:
			r.AuditSN, r.AuditClean = u64(), rng.Intn(2) == 0
			for j := rng.Intn(3); j > 0; j-- {
				r.CorruptAddrs = append(r.CorruptAddrs, mem.Addr(u64()))
				r.CorruptLens = append(r.CorruptLens, uint32(u64()))
			}
		}
		recs[i] = r
	}
	return recs
}

// TestAppendBatchesRoundTripThroughCursor: seeded random Appends come back
// from a Cursor field for field, at the LSNs Append assigned. A batch is
// one frame that starts where the previous one ended, its records at
// increasing LSNs inside it, and the cursor reports the frame's end with
// each of them.
func TestAppendBatchesRoundTripThroughCursor(t *testing.T) {
	var flags byte // every tag flag some record of the run carried
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		l := openLog(t, dir)
		var want []*Record
		var frameEnds []LSN
		for b := 0; b < 30; b++ {
			batch := randomBatch(rng)
			start := l.End()
			if err := l.Append(batch...); err != nil {
				t.Fatal(err)
			}
			var st frameState
			for i, r := range batch {
				flags |= st.tag(r) &^ kindMask
				st.note(r)
				if i == 0 && r.LSN != start || i > 0 && r.LSN <= batch[i-1].LSN {
					t.Fatalf("seed %d batch %d: record %d at LSN %d (frame at %d)", seed, b, i, r.LSN, start)
				}
			}
			end := l.End()
			if n := len(encodeFrame(nil, batch...)); end != start+LSN(n) {
				t.Fatalf("seed %d batch %d: frame [%d, %d), encodes to %d bytes", seed, b, start, end, n)
			}
			for range batch {
				frameEnds = append(frameEnds, end)
			}
			want = append(want, batch...)
			if rng.Intn(4) == 0 {
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		cur, err := OpenCursor(iofault.OS, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ; cur.Next(); i++ {
			if i >= len(want) {
				t.Fatalf("seed %d: cursor yields more than the %d records appended", seed, len(want))
			}
			if got, w := normalized(cur.Record()), normalized(want[i]); !reflect.DeepEqual(got, w) {
				t.Fatalf("seed %d record %d:\n got %+v\nwant %+v", seed, i, got, w)
			}
			if got := cur.FrameEnd(); got != frameEnds[i] {
				t.Fatalf("seed %d record %d: frame end %d, want %d", seed, i, got, frameEnds[i])
			}
		}
		if err := cur.Err(); err != nil || i != len(want) {
			t.Fatalf("seed %d: walked %d of %d records: %v", seed, i, len(want), err)
		}
	}
	if all := byte(flagTxn | flagBool | flagSameOp | flagUndoIsKey); flags != all {
		t.Fatalf("the batches set tag flags %#x, want all of %#x", flags, all)
	}
}

// TestTornMultiRecordFrame cuts the log at every byte of a multi-record
// frame: open and scan both end at the frame's start, and none of its
// records is visible — an Append is durable whole or not at all.
func TestTornMultiRecordFrame(t *testing.T) {
	pristine := t.TempDir()
	l := openLog(t, pristine)
	begin := &Record{Kind: KindTxnBegin, Txn: 42}
	op := tpcbUpdate(42)
	if err := l.Append(begin); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(op...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(pristine, LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	frame := logHeaderSize + int(op[0].LSN)
	for cut := frame; cut < len(image); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LogFileName), image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cur, err := OpenCursor(iofault.OS, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		var kinds []Kind
		for cur.Next() {
			kinds = append(kinds, cur.Record().Kind)
		}
		if err := cur.Err(); err != nil || len(kinds) != 1 || kinds[0] != KindTxnBegin {
			t.Fatalf("cut at %d: scanned %v, %v; want the txn-begin alone", cut, kinds, err)
		}
		if end := cur.End(); end != op[0].LSN {
			t.Fatalf("cut at %d: scan ends at %d, want the frame's start %d", cut, end, op[0].LSN)
		}
		if end, err := openEnd(t, dir); err != nil || end != op[0].LSN {
			t.Fatalf("cut at %d: open ends at %d (%v), want the frame's start %d", cut, end, err, op[0].LSN)
		}
	}
}

// TestAppendBytesMatchFileGrowth: wal.append_bytes counts every byte an
// Append adds to the tail, frame header included, so after a Flush the
// stable log has grown by exactly the counter's delta, and a closed log
// file is exactly its header and those bytes (the flusher's extension
// past them is trimmed); wal.appends counts records, not frames.
func TestAppendBytesMatchFileGrowth(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	reg := obs.NewRegistry()
	l.SetRegistry(reg)
	appendBytes, appends := reg.Counter(obs.NameWALAppendBytes), reg.Counter(obs.NameWALAppends)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		stable, bytes0, appends0 := l.StableEnd(), appendBytes.Load(), appends.Load()
		records := 0
		for j := 1 + rng.Intn(3); j > 0; j-- {
			batch := randomBatch(rng)
			records += len(batch)
			if err := l.Append(batch...); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if grew, counted := uint64(l.StableEnd()-stable), appendBytes.Load()-bytes0; grew != counted {
			t.Fatalf("round %d: stable log grew %d bytes, wal.append_bytes counted %d", i, grew, counted)
		}
		if got := appends.Load() - appends0; got != uint64(records) {
			t.Fatalf("round %d: wal.appends counted %d, appended %d records", i, got, records)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if size, want := logSize(t, dir), logHeaderSize+int64(appendBytes.Load()); size != want {
		t.Fatalf("closed log file is %d bytes, want the header and %d appended bytes", size, appendBytes.Load())
	}
}

// reopenFailFS fails, once armed, Compact's reopen of the renamed log: the
// open itself, or with seek set the seek to its end.
type reopenFailFS struct {
	iofault.FS
	armed, seek bool
}

type seekFailFile struct{ iofault.File }

func (seekFailFile) Seek(int64, int) (int64, error) { return 0, errors.New("injected seek failure") }

func (fs *reopenFailFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	if !fs.armed || filepath.Base(name) != LogFileName || flag != os.O_RDWR {
		return fs.FS.OpenFile(name, flag, perm)
	}
	if !fs.seek {
		return nil, errors.New("injected reopen failure")
	}
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return seekFailFile{f}, nil
}

// TestCompactReopenFailurePoisons: once Compact has renamed the compacted
// file over the log, the old handle writes to an unlinked inode restart
// never reads. A failed reopen therefore poisons the log, and the next
// Append and Flush say so; the file at the log's path is the compacted
// one.
func TestCompactReopenFailurePoisons(t *testing.T) {
	for _, seek := range []bool{false, true} {
		dir := t.TempDir()
		fsys := &reopenFailFS{FS: iofault.OS, seek: seek}
		l, err := OpenSystemLogFS(fsys, dir, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		var keep LSN
		for txn := TxnID(1); txn <= 4; txn++ {
			if txn == 4 {
				keep = l.StableEnd()
			}
			if err := l.AppendAndFlush(&Record{Kind: KindTxnCommit, Txn: txn}); err != nil {
				t.Fatal(err)
			}
		}
		fsys.armed = true
		if err := l.Compact(keep); !errors.Is(err, ErrLogPoisoned) {
			t.Fatalf("seek=%v: compact = %v, want ErrLogPoisoned", seek, err)
		}
		if err := l.Append(&Record{Kind: KindTxnBegin, Txn: 5}); !errors.Is(err, ErrLogPoisoned) {
			t.Fatalf("seek=%v: append after a failed reopen = %v, want ErrLogPoisoned", seek, err)
		}
		if err := l.Flush(); !errors.Is(err, ErrLogPoisoned) {
			t.Fatalf("seek=%v: flush after a failed reopen = %v, want ErrLogPoisoned", seek, err)
		}
		l.Close()
		if base, err := LogBaseFS(iofault.OS, dir); err != nil || base != keep {
			t.Fatalf("seek=%v: log base %d (%v), want the compaction point %d", seek, base, err, keep)
		}
	}
}

// TestLegacyFormatRefused: a DALILOG1 log — one frame per record, the
// format earlier versions wrote — is refused by every opener and reader
// with an error naming the format, and left as it was.
func TestLegacyFormatRefused(t *testing.T) {
	dir := t.TempDir()
	// A DALILOG1 header at base 0 and that format's txn-begin frame.
	old, err := hex.DecodeString("44414c494c4f47310000000000000000" + "0200000035bd6226040b")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, LogFileName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirSnapshot(t, dir)
	for name, open := range map[string]func() error{
		"OpenSystemLogFS": func() error { _, err := OpenSystemLogFS(iofault.OS, dir, 4096, nil); return err },
		"OpenCursor":      func() error { _, err := OpenCursor(iofault.OS, dir, nil); return err },
		"LogBaseFS":       func() error { _, err := LogBaseFS(iofault.OS, dir); return err },
		"TruncateAtFS":    func() error { return TruncateAtFS(iofault.OS, dir, 0) },
	} {
		if err := open(); err == nil || !strings.Contains(err.Error(), legacyMagic) {
			t.Fatalf("%s = %v, want a refusal naming %s", name, err, legacyMagic)
		}
	}
	if after := dirSnapshot(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("a refused open changed the directory")
	}
}
