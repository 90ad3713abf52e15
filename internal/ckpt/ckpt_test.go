package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iofault"
	"repro/internal/mem"
	"repro/internal/wal"
)

func newArena(t *testing.T, size int) *mem.Arena {
	t.Helper()
	a, err := mem.NewArena(size, 4096, mem.WithHeapBacking())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func TestAnchorRoundTrip(t *testing.T) {
	a := Anchor{Current: 1, SeqNo: 42, CKEnd: 1000, AuditSN: 1200}
	got, err := decodeAnchor(a.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("roundtrip: %+v != %+v", got, a)
	}
}

func TestAnchorRejectsCorruption(t *testing.T) {
	a := Anchor{Current: 0, SeqNo: 7, CKEnd: 5, AuditSN: 9}
	enc := a.encode()
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		if _, err := decodeAnchor(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	if _, err := decodeAnchor(enc[:10]); err == nil {
		t.Fatal("short anchor accepted")
	}
}

func TestOpenEmptyDir(t *testing.T) {
	s, err := Open(iofault.OS, t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Anchor(); ok {
		t.Fatal("fresh dir reports an anchor")
	}
}

// TestOpenAnchorReadFault pins that Open reads the anchor through the
// injectable FS: a read fault armed on it surfaces from Open instead of
// being bypassed, so the read-fault recovery tests reach the anchor.
func TestOpenAnchorReadFault(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(iofault.OS, dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	fullCheckpoint(t, s, newArena(t, 4*4096), nil, nil, 0, 0)

	ffs := iofault.NewFaultFS(dir)
	ffs.FailNthRead(1)
	if _, err := Open(ffs, dir, 4096); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("Open with a failing anchor read = %v, want %v", err, iofault.ErrInjected)
	}
}

func fullCheckpoint(t *testing.T, s *Set, arena *mem.Arena, att, meta []byte, ckEnd, auditSN wal.LSN) {
	t.Helper()
	snap := s.Begin(arena, att, meta, ckEnd)
	if err := s.Write(snap, arena.Size()); err != nil {
		t.Fatal(err)
	}
	if err := s.Certify(snap, auditSN); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointAndLoad(t *testing.T) {
	dir := t.TempDir()
	arena := newArena(t, 64*1024)
	rand.New(rand.NewSource(1)).Read(arena.Bytes())

	s, err := Open(iofault.OS, dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	att := wal.EncodeEntries([]*wal.TxnEntry{{ID: 5, State: wal.TxnActive,
		Undo: []wal.UndoRec{{Kind: wal.UndoPhys, Addr: 3, Before: []byte{1}}}}})
	meta := []byte("catalog-bytes")
	fullCheckpoint(t, s, arena, att, meta, 123, 456)

	a, ok := s.Anchor()
	if !ok || a.SeqNo != 1 || a.CKEnd != 123 || a.AuditSN != 456 || a.Current != 0 {
		t.Fatalf("anchor after first checkpoint: %+v", a)
	}

	l, err := Load(iofault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l.Image, arena.Bytes()) {
		t.Fatal("loaded image differs from arena")
	}
	if len(l.ATTEntries) != 1 || l.ATTEntries[0].ID != 5 {
		t.Fatalf("loaded ATT: %+v", l.ATTEntries)
	}
	if string(l.Meta) != "catalog-bytes" {
		t.Fatalf("loaded meta: %q", l.Meta)
	}
	if l.Anchor != a {
		t.Fatalf("loaded anchor %+v != %+v", l.Anchor, a)
	}
}

func TestPingPongAlternates(t *testing.T) {
	dir := t.TempDir()
	arena := newArena(t, 32*1024)
	s, err := Open(iofault.OS, dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	fullCheckpoint(t, s, arena, nil, nil, 1, 1)
	a1, _ := s.Anchor()
	fullCheckpoint(t, s, arena, nil, nil, 2, 2)
	a2, _ := s.Anchor()
	fullCheckpoint(t, s, arena, nil, nil, 3, 3)
	a3, _ := s.Anchor()
	if a1.Current != 0 || a2.Current != 1 || a3.Current != 0 {
		t.Fatalf("images did not alternate: %d %d %d", a1.Current, a2.Current, a3.Current)
	}
	if a3.SeqNo != 3 {
		t.Fatalf("seqno = %d", a3.SeqNo)
	}
}

func TestIncrementalCheckpointWritesOnlyDirtyPages(t *testing.T) {
	dir := t.TempDir()
	arena := newArena(t, 32*1024)
	rand.New(rand.NewSource(2)).Read(arena.Bytes())
	s, err := Open(iofault.OS, dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Two full checkpoints initialize both images.
	fullCheckpoint(t, s, arena, nil, nil, 1, 1)
	fullCheckpoint(t, s, arena, nil, nil, 2, 2)

	// Dirty page 3, checkpoint: snapshot must contain only page 3.
	arena.Page(3)[0] = 0xAB
	s.NoteDirty(3)
	snap := s.Begin(arena, nil, nil, 3)
	if len(snap.Pages) != 1 {
		t.Fatalf("snapshot holds %d pages, want 1", len(snap.Pages))
	}
	if _, ok := snap.Pages[3]; !ok {
		t.Fatal("snapshot missing dirtied page")
	}
	if err := s.Write(snap, arena.Size()); err != nil {
		t.Fatal(err)
	}
	if err := s.Certify(snap, 3); err != nil {
		t.Fatal(err)
	}
	l, err := Load(iofault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l.Image, arena.Bytes()) {
		t.Fatal("incremental image diverged from arena")
	}
}

func TestDirtySetsPerImage(t *testing.T) {
	dir := t.TempDir()
	arena := newArena(t, 32*1024)
	s, err := Open(iofault.OS, dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	fullCheckpoint(t, s, arena, nil, nil, 1, 1) // image A full
	fullCheckpoint(t, s, arena, nil, nil, 2, 2) // image B full

	// Page 1 dirtied: it is pending for both images.
	s.NoteDirty(1)
	d0, d1 := s.DirtyCounts()
	if d0 != 1 || d1 != 1 {
		t.Fatalf("dirty counts = %d,%d", d0, d1)
	}
	// Checkpoint to image A consumes A's set; B still remembers page 1.
	snapA := s.Begin(arena, nil, nil, 3)
	if len(snapA.Pages) != 1 {
		t.Fatalf("image A snapshot pages = %d", len(snapA.Pages))
	}
	if err := s.Write(snapA, arena.Size()); err != nil {
		t.Fatal(err)
	}
	if err := s.Certify(snapA, 3); err != nil {
		t.Fatal(err)
	}
	snapB := s.Begin(arena, nil, nil, 4)
	if len(snapB.Pages) != 1 {
		t.Fatalf("image B snapshot pages = %d (page 1 forgotten or duplicated)", len(snapB.Pages))
	}
}

func TestCrashBeforeCertifyKeepsOldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	arena := newArena(t, 32*1024)
	rand.New(rand.NewSource(3)).Read(arena.Bytes())
	s, err := Open(iofault.OS, dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	fullCheckpoint(t, s, arena, nil, []byte("v1"), 1, 1)

	// Second checkpoint writes the image but "crashes" before Certify.
	arena.Page(0)[0] = 0xFF
	s.NoteDirty(0)
	snap := s.Begin(arena, nil, []byte("v2"), 2)
	if err := s.Write(snap, arena.Size()); err != nil {
		t.Fatal(err)
	}
	// No Certify. Load must still see v1.
	l, err := Load(iofault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(l.Meta) != "v1" {
		t.Fatalf("load after uncertified write: meta %q, want v1", l.Meta)
	}
	if l.Anchor.CKEnd != 1 {
		t.Fatalf("anchor CKEnd = %d, want 1", l.Anchor.CKEnd)
	}
}

func TestReopenForcesFullRewrite(t *testing.T) {
	dir := t.TempDir()
	arena := newArena(t, 32*1024)
	rand.New(rand.NewSource(4)).Read(arena.Bytes())
	s, err := Open(iofault.OS, dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	fullCheckpoint(t, s, arena, nil, nil, 1, 1)
	fullCheckpoint(t, s, arena, nil, nil, 2, 2)

	// Reopen (as after a crash): dirty knowledge is gone, so the next
	// checkpoint must write every page even though nothing is noted.
	s2, err := Open(iofault.OS, dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := s2.Anchor()
	if !ok || a.SeqNo != 2 {
		t.Fatalf("anchor after reopen: %+v ok=%v", a, ok)
	}
	snap := s2.Begin(arena, nil, nil, 3)
	if len(snap.Pages) != arena.NumPages() {
		t.Fatalf("post-reopen snapshot pages = %d, want all %d", len(snap.Pages), arena.NumPages())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(iofault.OS, t.TempDir()); err == nil {
		t.Fatal("load with no anchor succeeded")
	}

	// Corrupt meta checksum.
	dir := t.TempDir()
	arena := newArena(t, 16*1024)
	s, _ := Open(iofault.OS, dir, 4096)
	fullCheckpoint(t, s, arena, nil, []byte("m"), 1, 1)
	path := filepath.Join(dir, metaAName)
	mb, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mb[0] ^= 0xFF
	if err := os.WriteFile(path, mb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(iofault.OS, dir); err == nil {
		t.Fatal("corrupt meta accepted")
	}
}

func TestLoadDetectsImageCorruptionOnDisk(t *testing.T) {
	dir := t.TempDir()
	arena := newArena(t, 32*1024)
	rand.New(rand.NewSource(9)).Read(arena.Bytes())
	s, err := Open(iofault.OS, dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	fullCheckpoint(t, s, arena, nil, nil, 1, 1)
	if _, err := Load(iofault.OS, dir); err != nil {
		t.Fatalf("clean load: %v", err)
	}

	// Flip one byte of the image file: the page codeword table must
	// refuse it.
	path := filepath.Join(dir, imageAName)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[12345] ^= 0x01
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(iofault.OS, dir); err == nil {
		t.Fatal("corrupt checkpoint image accepted")
	}
}

func TestIncrementalCheckpointMaintainsPageCodewords(t *testing.T) {
	dir := t.TempDir()
	arena := newArena(t, 32*1024)
	rand.New(rand.NewSource(10)).Read(arena.Bytes())
	s, err := Open(iofault.OS, dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	fullCheckpoint(t, s, arena, nil, nil, 1, 1)
	fullCheckpoint(t, s, arena, nil, nil, 2, 2)

	// Incremental write of one dirty page must keep the whole table
	// verifiable.
	arena.Page(5)[100] = 0x42
	s.NoteDirty(5)
	snap := s.Begin(arena, nil, nil, 3)
	if err := s.Write(snap, arena.Size()); err != nil {
		t.Fatal(err)
	}
	if err := s.Certify(snap, 3); err != nil {
		t.Fatal(err)
	}
	l, err := Load(iofault.OS, dir)
	if err != nil {
		t.Fatalf("load after incremental: %v", err)
	}
	if !bytes.Equal(l.Image, arena.Bytes()) {
		t.Fatal("image mismatch")
	}
}
