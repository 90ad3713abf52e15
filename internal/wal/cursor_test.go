package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iofault"
)

// cursorTestLog writes a log of n records of mixed kinds,
// shaped like a TPC-B tail, and returns its directory.
func cursorTestLog(t testing.TB, n int) string {
	t.Helper()
	dir := t.TempDir()
	l, err := OpenLogSet(dir, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xA5}, 40)
	for i := 0; i < n; i++ {
		txn := TxnID(1 + i/8)
		var r *Record
		switch i % 8 {
		case 0:
			r = &Record{Kind: KindTxnBegin, Txn: txn}
		case 1, 4:
			r = &Record{Kind: KindOpBegin, Txn: txn, Level: 1, Key: ObjectKey(i)}
		case 2, 5:
			r = &Record{Kind: KindPhysRedo, Txn: txn, Addr: 4096, Data: data}
		case 3, 6:
			r = &Record{Kind: KindOpCommit, Txn: txn, Level: 1, Key: ObjectKey(i),
				Undo: LogicalUndo{Op: 3, Key: ObjectKey(i), Args: data[:12]}}
		default:
			r = &Record{Kind: KindTxnCommit, Txn: txn}
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCursorAllocations: walking a log allocates per cursor, not per
// record — the buffer the file is read into, the cursor, and nothing that
// grows with the record count, on the first pass or a rewound one.
func TestCursorAllocations(t *testing.T) {
	const records = 10000
	dir := cursorTestLog(t, records)
	walk := func(c *Cursor) {
		n := 0
		for c.Next() {
			n++
		}
		if err := c.Err(); err != nil || n != records {
			t.Fatalf("walked %d records, err %v", n, err)
		}
	}
	open := testing.AllocsPerRun(5, func() {
		c, err := OpenCursor(iofault.OS, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		walk(c)
		c.Rewind()
		walk(c)
		c.Release()
	})
	if open > 40 {
		t.Errorf("open + two passes over %d records: %.0f allocations, want a small constant", records, open)
	}
	c, err := OpenCursor(iofault.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pass := testing.AllocsPerRun(5, func() { c.Rewind(); walk(c) }); pass != 0 {
		t.Errorf("one pass over %d records: %.0f allocations, want 0", records, pass)
	}
}

// openEnd opens the log in dir the way a database without a scan to
// vouch for it does, and reports the end it adopted.
func openEnd(t *testing.T, dir string) (LSN, error) {
	t.Helper()
	l, err := OpenLogSet(dir, 4096, 1)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.End(), nil
}

// TestOpenAndScanAgreeOnTheValidPrefix damages a multi-record, multi-kind
// log in every way a torn or lying write can — every truncation point,
// every single-byte flip, a zero-filled tail — and requires that the end an open adopts is the
// end a scan reports, and that a record appended after that open is the
// next one a scan returns: no reader may see a longer or shorter log than
// the writer resumes.
func TestOpenAndScanAgreeOnTheValidPrefix(t *testing.T) {
	pristine := t.TempDir()
	l, err := OpenLogSet(pristine, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(pristine, LogFileName))
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, damaged []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, LogFileName)
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		cur, err := OpenCursor(iofault.OS, dir, nil)
		if len(damaged) < logHeaderSize || !bytes.Equal(damaged[:len(logMagic)], image[:len(logMagic)]) {
			// A damaged header is not a tail: both sides refuse it (an empty
			// file is a fresh log). A flip in the base LSN is a valid header
			// naming another base, and is held to the rule like any other.
			_, oerr := openEnd(t, dir)
			if len(damaged) != 0 && (err == nil || oerr == nil) {
				t.Fatalf("%s: bad header accepted: scan err %v, open err %v", name, err, oerr)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: scan: %v", name, err)
		}
		scanned := 0
		for cur.Next() {
			scanned++
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("%s: scan: %v", name, err)
		}
		scanEnd := cur.End()

		end, err := openEnd(t, dir)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if end != scanEnd {
			t.Fatalf("%s: open adopted end %d, scan reported %d", name, end, scanEnd)
		}
		// Reopen at the scanned end (the recovery path) and append.
		l, err := OpenSystemLogFS(iofault.OS, dir, 4096, &scanEnd)
		if err != nil {
			t.Fatalf("%s: open at scanned end: %v", name, err)
		}
		marker := &Record{Kind: KindTxnCommit, Txn: 424242}
		if err := l.AppendAndFlush(marker); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if marker.LSN != scanEnd {
			t.Fatalf("%s: appended at %d, scan ended at %d", name, marker.LSN, scanEnd)
		}
		again, err := scanAll(dir)
		if err != nil {
			t.Fatalf("%s: rescan: %v", name, err)
		}
		if last := again[len(again)-1]; len(again) != scanned+1 || last.Txn != marker.Txn || last.LSN != scanEnd {
			t.Fatalf("%s: rescan returned %d records ending %+v, want %d ending with the appended commit", name, len(again), last, scanned+1)
		}
	}

	for cut := 0; cut <= len(image); cut++ {
		check(fmt.Sprintf("cut@%d", cut), image[:cut])
	}
	for i := range image {
		flipped := append([]byte(nil), image...)
		flipped[i] ^= 0xFF
		check(fmt.Sprintf("flip@%d", i), flipped)
	}
	// A zero-filled tail (size extended, blocks never written): eight zero
	// bytes are a length-0 frame whose checksum matches, and still no record.
	for _, pad := range []int{1, 8, 16, 4096} {
		check(fmt.Sprintf("zeropad%d", pad), append(image[:len(image):len(image)], make([]byte, pad)...))
	}
}

// TestUndecodablePayloadIsAnError: a frame the walker accepts — whole,
// checksum intact — whose payload does not decode is neither end-of-log
// nor truncated away. A scan fails on it and so does an open that has no
// scan's word for the file; an open at an end a scan established never
// looks.
func TestUndecodablePayloadIsAnError(t *testing.T) {
	good := &Record{Kind: KindTxnBegin, Txn: 7}
	for name, bad := range map[string][]byte{
		"unknown kind":  (&Record{Kind: Kind(200), Txn: 7}).Encode(nil),
		"short payload": shortPayloadFrame(),
	} {
		t.Run(name, func(t *testing.T) {
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
				t.Fatal("a failed open changed the log file")
			}
		})
	}
}

// shortPayloadFrame frames, under a valid checksum, a physical record
// whose data length field claims more bytes than the payload holds.
func shortPayloadFrame() []byte {
	payload := []byte{byte(KindPhysRedo), 7, 0, 200, 1, 2, 3}
	b := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// TestStreamCursorReadsOneFile: the cursor reads system.log alone, in LSN
// order, and ends where the file's valid prefix ends. Other files in the
// directory — a compaction's leftover temporary, checkpoint files — are
// never read, so garbage in them cannot fail the walk.
func TestStreamCursorReadsOneFile(t *testing.T) {
	dir := cursorTestLog(t, 30)
	want, err := scanAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{LogFileName + ".compact", "ckpt_A.meta"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a log header"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := OpenCursor(iofault.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; cur.Next(); i++ {
		if i >= len(want) || cur.Record().LSN != want[i].LSN || cur.Record().Txn != want[i].Txn {
			t.Fatalf("record %d: LSN %d txn %d, want %+v", i, cur.Record().LSN, cur.Record().Txn, want[min(i, len(want)-1)])
		}
	}
	if err := cur.Err(); err != nil || i != len(want) {
		t.Fatalf("walked %d of %d records, err %v", i, len(want), err)
	}
	last := want[len(want)-1]
	if end := cur.End(); end != last.LSN+LSN(last.EncodedSize()) {
		t.Fatalf("End() = %d, want %d (after the last record)", end, last.LSN+LSN(last.EncodedSize()))
	}
}
