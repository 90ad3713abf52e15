package iofault

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func newFS(t *testing.T) (*FaultFS, string) {
	t.Helper()
	root := t.TempDir()
	return NewFaultFS(root), root
}

func writeThrough(t *testing.T, fs *FaultFS, path string, data []byte) File {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestUnsyncedWritesAreNotDurable is the heart of the crash model: bytes
// written but never fsynced do not survive, even though the running
// process reads them back fine (page-cache semantics).
func TestUnsyncedWritesAreNotDurable(t *testing.T) {
	fs, root := newFS(t)
	path := filepath.Join(root, "f")
	f := writeThrough(t, fs, path, []byte("hello"))
	defer f.Close()

	// Volatile view sees the bytes.
	if b, err := fs.ReadFile(path); err != nil || string(b) != "hello" {
		t.Fatalf("volatile read = %q, %v", b, err)
	}
	// Durable view has no content: the create is pending, nothing synced.
	if n, ok := fs.DurableLen("f"); ok && n != 0 {
		t.Fatalf("unsynced file durable with %d bytes", n)
	}

	dst := t.TempDir()
	if err := fs.MaterializeDurable(dst); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dst, "f")); err == nil {
		t.Fatal("unsynced, dir-unsynced file materialized after crash")
	}
}

// TestSyncMakesContentDurable: Sync captures the file content as the
// durable snapshot and commits the file's own pending creation.
func TestSyncMakesContentDurable(t *testing.T) {
	fs, root := newFS(t)
	path := filepath.Join(root, "f")
	f := writeThrough(t, fs, path, []byte("hello"))
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, ok := fs.DurableLen("f"); !ok || n != 5 {
		t.Fatalf("after sync: durable len %d, ok %v", n, ok)
	}
	// Later writes are again volatile until the next sync.
	if _, err := f.Write([]byte(" world")); err != nil {
		t.Fatal(err)
	}
	if n, _ := fs.DurableLen("f"); n != 5 {
		t.Fatalf("write after sync leaked into durable state: %d bytes", n)
	}

	dst := t.TempDir()
	if err := fs.MaterializeDurable(dst); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dst, "f"))
	if err != nil || string(b) != "hello" {
		t.Fatalf("materialized %q, %v; want %q", b, err, "hello")
	}
}

// TestRenameNeedsDirSync: a rename is volatile until SyncDir commits the
// directory entry; after a crash without SyncDir the OLD name survives
// with its old durable content.
func TestRenameNeedsDirSync(t *testing.T) {
	fs, root := newFS(t)
	tmp := filepath.Join(root, "f.tmp")
	if err := WriteFileSync(fs, tmp, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// WriteFileSync = create+write+sync: the sync commits the creation, so
	// f.tmp is durable with its content.
	if n, ok := fs.DurableLen("f.tmp"); !ok || n != 2 {
		t.Fatalf("tmp after WriteFileSync: durable len %d, ok %v", n, ok)
	}

	if err := fs.Rename(tmp, filepath.Join(root, "f")); err != nil {
		t.Fatal(err)
	}
	// Crash now: durable view still has f.tmp, not f.
	if _, ok := fs.DurableLen("f"); ok {
		t.Fatal("rename became durable without a directory sync")
	}
	if _, ok := fs.DurableLen("f.tmp"); !ok {
		t.Fatal("rename source vanished from durable state without a directory sync")
	}

	if err := fs.SyncDir(root); err != nil {
		t.Fatal(err)
	}
	if n, ok := fs.DurableLen("f"); !ok || n != 2 {
		t.Fatalf("after SyncDir: durable len %d, ok %v", n, ok)
	}
	if _, ok := fs.DurableLen("f.tmp"); ok {
		t.Fatal("rename source still durable after SyncDir")
	}
}

// TestCrashFreezesDurableState: once the armed point fires, every further
// mutation and read fails with ErrCrashed and the durable state no longer
// changes.
func TestCrashFreezesDurableState(t *testing.T) {
	fs, root := newFS(t)
	path := filepath.Join(root, "f")
	if err := WriteFileSync(fs, path, []byte("stable")); err != nil {
		t.Fatal(err)
	}
	fs.CrashAtPoint(int64(fs.Points())) // the very next mutating op

	f, err := fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err) // non-mutating open: no point consumed
	}
	defer f.Close()
	if _, err := f.Write([]byte("junk")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write at crash point = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("crash did not fire")
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash = %v, want ErrCrashed", err)
	}
	if _, err := fs.ReadFile(path); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash = %v, want ErrCrashed", err)
	}
	if err := fs.Rename(path, path+"2"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash = %v, want ErrCrashed", err)
	}

	dst := t.TempDir()
	if err := fs.MaterializeDurable(dst); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dst, "f"))
	if err != nil || string(b) != "stable" {
		t.Fatalf("materialized %q, %v; want pre-crash content", b, err)
	}
}

// TestShortWrite: the armed write persists half the buffer and reports an
// injected error; the volatile file really is short.
func TestShortWrite(t *testing.T) {
	fs, root := newFS(t)
	path := filepath.Join(root, "f")
	fs.ShortWriteNth(1)
	f := writeThrough(t, fs, path, nil)
	defer f.Close()
	_, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write error = %v, want ErrInjected", err)
	}
	b, _ := os.ReadFile(path)
	if len(b) != 5 {
		t.Fatalf("file has %d bytes after short write, want 5", len(b))
	}
}

// TestNoSpace: the armed write applies nothing and returns ErrNoSpace.
func TestNoSpace(t *testing.T) {
	fs, root := newFS(t)
	path := filepath.Join(root, "f")
	fs.NoSpaceNth(1)
	f := writeThrough(t, fs, path, nil)
	defer f.Close()
	_, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrNoSpace) || !errors.Is(err, ErrInjected) {
		t.Fatalf("enospc write error = %v, want ErrNoSpace wrapping ErrInjected", err)
	}
	b, _ := os.ReadFile(path)
	if len(b) != 0 {
		t.Fatalf("file has %d bytes after ENOSPC, want 0", len(b))
	}
}

// TestTornWriteLies: the armed write persists half the buffer but reports
// full success — the caller cannot tell anything went wrong.
func TestTornWriteLies(t *testing.T) {
	fs, root := newFS(t)
	path := filepath.Join(root, "f")
	fs.TornWriteNth(1)
	f := writeThrough(t, fs, path, nil)
	defer f.Close()
	n, err := f.Write([]byte("0123456789"))
	if err != nil || n != 10 {
		t.Fatalf("torn write reported (%d, %v), want (10, nil)", n, err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "01234" {
		t.Fatalf("file content %q after torn write, want %q", b, "01234")
	}
	// The lie extends to durability: sync snapshots the torn content.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if dn, ok := fs.DurableLen("f"); !ok || dn != 5 {
		t.Fatalf("durable len %d, ok %v after torn write + sync", dn, ok)
	}
}

// TestPreexistingFilesAreDurable: files present before the simulation
// begins survive any crash with their original content.
func TestPreexistingFilesAreDurable(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "old"), []byte("ancient"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultFS(root)
	fs.CrashAtPoint(0)
	if _, err := fs.OpenFile(filepath.Join(root, "new"), os.O_CREATE|os.O_RDWR, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("create at point 0 = %v, want ErrCrashed", err)
	}
	dst := t.TempDir()
	if err := fs.MaterializeDurable(dst); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dst, "old"))
	if err != nil || string(b) != "ancient" {
		t.Fatalf("pre-existing file after crash: %q, %v", b, err)
	}
	if _, err := os.Stat(filepath.Join(dst, "new")); err == nil {
		t.Fatal("file created at the crash point materialized")
	}
}

// TestPointDeterminism: the same operation sequence consumes the same
// points, and each mutating op consumes exactly one.
func TestPointDeterminism(t *testing.T) {
	run := func() uint64 {
		fs, root := newFS(t)
		if err := WriteFileSync(fs, filepath.Join(root, "a.tmp"), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename(filepath.Join(root, "a.tmp"), filepath.Join(root, "a")); err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncDir(root); err != nil {
			t.Fatal(err)
		}
		return fs.Points()
	}
	p1, p2 := run(), run()
	if p1 != p2 {
		t.Fatalf("nondeterministic points: %d vs %d", p1, p2)
	}
	// WriteFileSync = create + write + sync; then rename + syncdir = 5.
	if p1 != 5 {
		t.Fatalf("points = %d, want 5 (create, write, sync, rename, syncdir)", p1)
	}
}

// TestReadAtHonorsReadFailpoints: File.ReadAt goes through the same gate
// as ReadFile — it counts toward FailNthRead, lies at the CorruptReadAt
// offset when the read covers it, and fails once the machine is down.
func TestReadAtHonorsReadFailpoints(t *testing.T) {
	fs, root := newFS(t)
	path := filepath.Join(root, "f")
	f := writeThrough(t, fs, path, []byte("0123456789"))
	defer f.Close()

	fs.CorruptReadAt(path, 5)
	p := make([]byte, 4)
	if _, err := f.ReadAt(p, 3); err != nil || string(p) != "34\xca6" { // '5' ^ 0xFF
		t.Fatalf("ReadAt over the armed offset = %q, %v", p, err)
	}
	if _, err := f.ReadAt(p, 6); err != nil || string(p) != "6789" {
		t.Fatalf("ReadAt beside the armed offset = %q, %v", p, err)
	}
	fs.CorruptReadAt("", 0)

	fs.FailNthRead(fs.Reads() + 1)
	if _, err := f.ReadAt(p, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed ReadAt = %v, want ErrInjected", err)
	}
	fs.CrashAtPoint(0)
	f.Write([]byte("x")) // the crash point
	if _, err := f.ReadAt(p, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ReadAt after crash = %v, want ErrCrashed", err)
	}
}
