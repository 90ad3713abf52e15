package iofault

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// Op classifies the mutating filesystem operations that consume I/O
// points.
type Op int

// The mutating operation kinds, in no particular order. Reads are not I/O
// points: they cannot change the durable state.
const (
	OpCreate Op = iota // OpenFile that creates or truncates
	OpWrite
	OpWriteAt
	OpSync
	OpTruncate
	OpRename
	OpSyncDir
	// OpRead does not consume an I/O point (reads cannot change the
	// durable state); it exists so read failpoints have an op label.
	OpRead
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpWriteAt:
		return "writeat"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpSyncDir:
		return "syncdir"
	case OpRead:
		return "read"
	}
	return "unknown"
}

// dstate is the durable snapshot of one file: whether its directory entry
// survives a crash and the content that survives with it — data, then
// zeros up to size (a file extended past its writes keeps its hole a hole).
type dstate struct {
	exists bool
	data   []byte
	size   int64
}

// dirop is a pending directory-entry operation: durable only once a
// SyncDir (or a Sync of the file at path) commits it.
type dirop struct {
	rename bool
	path   string // the entry being created (rel)
	old    string // rename source (rel); empty for creation
	// oldDurable is the source's durable snapshot at rename time: that is
	// the content the committed entry exposes after a crash.
	oldDurable dstate
}

// FaultFS wraps the real filesystem under one root directory with
// deterministic, seeded failpoints and a simulated durable state. All
// mutations pass through to the real files (so the running engine reads
// back its own writes, like a page cache), while FaultFS tracks which
// bytes an abrupt crash would preserve.
//
// FaultFS is safe for concurrent use; every operation serializes on one
// mutex, which also makes the I/O-point sequence of a single-threaded
// workload fully deterministic.
type FaultFS struct {
	root string

	mu      sync.Mutex
	points  uint64 // I/O points consumed so far
	syncs   uint64 // Sync calls seen (for FailNthSync)
	writes  uint64 // Write/WriteAt calls seen (for per-write failpoints)
	crashAt int64  // crash when points reaches this; -1 = never
	crashed bool

	failSyncN   uint64 // fail the Nth (1-based) Sync with ErrInjected
	shortWriteN uint64 // Nth write persists half and returns ErrInjected
	noSpaceN    uint64 // Nth write fails wholesale with ErrNoSpace
	tornWriteN  uint64 // Nth write persists half but reports success

	reads          uint64 // ReadFile calls seen (for FailNthRead)
	failReadN      uint64 // fail the Nth (1-based) ReadFile with ErrInjected
	corruptReadOf  string // base name whose reads are corrupted
	corruptReadOff int64  // byte offset flipped in corrupted reads

	durable map[string]dstate
	pending []dirop
	// written bounds each file's written prefix (by rel path); past it lie
	// only zeros Truncate made. Moved by opens, writes, truncates, renames.
	written map[string]int64

	mInjected *obs.Counter
	mCrashes  *obs.Counter
	mOps      *obs.Counter
}

// NewFaultFS wraps the directory root. Files already present under root
// are considered durable as-is (they predate the simulation).
func NewFaultFS(root string) *FaultFS {
	fs := &FaultFS{
		root:    filepath.Clean(root),
		crashAt: -1,
		durable: make(map[string]dstate),
		written: make(map[string]int64),
	}
	// Pre-existing files are durable: snapshot them now. The walk descends
	// into subdirectories so a sharded root (shard-000/log, ...) is
	// captured whole; keys are root-relative paths.
	_ = filepath.WalkDir(fs.root, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		if b, err := os.ReadFile(path); err == nil {
			fs.durable[rel(fs.root, path)] = dstate{exists: true, data: b, size: int64(len(b))}
		}
		return nil
	})
	return fs
}

// SetRegistry wires the injector's counters (iofault.ops, .injected,
// .crashes) into reg. Call before concurrent use.
func (fs *FaultFS) SetRegistry(reg *obs.Registry) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.mOps = reg.Counter(obs.NameIOFaultOps)
	fs.mInjected = reg.Counter(obs.NameIOFaultInjected)
	fs.mCrashes = reg.Counter(obs.NameIOFaultCrashes)
}

// CrashAtPoint arms a crash at I/O point k (0-based): the k-th mutating
// operation, and every one after it, fails with ErrCrashed without being
// applied. A negative k disarms.
func (fs *FaultFS) CrashAtPoint(k int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashAt = k
}

// FailNthSync arms an injected failure of the nth (1-based) Sync call.
func (fs *FaultFS) FailNthSync(n uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failSyncN = n
}

// ShortWriteNth arms a short write at the nth (1-based) Write/WriteAt:
// only the first half of the buffer is applied and an ErrInjected-wrapped
// error is returned.
func (fs *FaultFS) ShortWriteNth(n uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.shortWriteN = n
}

// NoSpaceNth arms an ENOSPC at the nth (1-based) Write/WriteAt: nothing
// is applied and ErrNoSpace is returned.
func (fs *FaultFS) NoSpaceNth(n uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.noSpaceN = n
}

// TornWriteNth arms a torn write at the nth (1-based) Write/WriteAt: only
// the first half of the buffer reaches the file, but the call reports
// full success — the lying-storage fault a per-page codeword table is
// there to catch.
func (fs *FaultFS) TornWriteNth(n uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tornWriteN = n
}

// FailNthRead arms an injected failure of the nth (1-based) ReadFile —
// the latent media error recovery hits when it reads the anchor, a
// checkpoint image or the stable log back. Zero disarms.
func (fs *FaultFS) FailNthRead(n uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failReadN = n
}

// CorruptReadAt arms silent read corruption: every ReadFile of a file
// whose base name is name, and every File.ReadAt of it that covers the
// offset, returns the stored bytes with the byte at offset off flipped — lying storage on the read path, which only
// checksummed/codeworded readers can catch. An empty name disarms.
func (fs *FaultFS) CorruptReadAt(name string, off int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.corruptReadOf = filepath.Base(name)
	fs.corruptReadOff = off
}

// Reads reports the number of ReadFile and File.ReadAt calls seen so far,
// so a caller can arm FailNthRead at "the next read from now" (Reads()+1).
func (fs *FaultFS) Reads() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.reads
}

// Points reports the number of I/O points consumed so far. After a fully
// completed workload this is the exhaustive crash-point space: rerunning
// the same workload with CrashAtPoint(k) for every k in [0, Points())
// visits every I/O boundary.
func (fs *FaultFS) Points() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.points
}

// Crashed reports whether the simulated crash has fired.
func (fs *FaultFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Writes reports the number of Write/WriteAt calls seen so far, so a
// caller can arm a per-write failpoint at "the next write from now"
// (Writes()+1).
func (fs *FaultFS) Writes() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writes
}

// enter consumes one I/O point for a mutating operation, firing the crash
// failpoint if armed. Callers hold fs.mu.
func (fs *FaultFS) enterLocked(op Op, path string) error {
	if fs.crashed {
		return fmt.Errorf("%w (%s %s)", ErrCrashed, op, filepath.Base(path))
	}
	idx := fs.points
	fs.points++
	fs.mOps.Inc()
	if fs.crashAt >= 0 && idx >= uint64(fs.crashAt) {
		fs.crashed = true
		fs.mCrashes.Inc()
		return fmt.Errorf("%w at point %d (%s %s)", ErrCrashed, idx, op, filepath.Base(path))
	}
	return nil
}

// --- FS interface -----------------------------------------------------------

// OpenFile opens a file; creating or truncating counts as a mutating
// directory operation.
func (fs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	fs.mu.Lock()
	creates := flag&os.O_CREATE != 0
	truncs := flag&os.O_TRUNC != 0
	fi, existed := fs.statVolatileLocked(name)
	mutates := (creates && !existed) || truncs
	if mutates {
		if err := fs.enterLocked(OpCreate, name); err != nil {
			fs.mu.Unlock()
			return nil, err
		}
	} else if fs.crashed {
		fs.mu.Unlock()
		return nil, fmt.Errorf("%w (open %s)", ErrCrashed, filepath.Base(name))
	}
	r := rel(fs.root, name)
	if creates && !existed {
		fs.pending = append(fs.pending, dirop{path: r})
	}
	switch _, tracked := fs.written[r]; {
	case !existed || truncs:
		fs.written[r] = 0
	case !tracked:
		fs.written[r] = fi.Size()
	}
	fs.mu.Unlock()

	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, f: f, path: name, rel: r}, nil
}

// ReadFile reads the volatile content; it fails once the simulated
// machine is down, and consults the read failpoints (FailNthRead,
// CorruptReadAt) before returning.
func (fs *FaultFS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	flip, err := fs.readEnterLocked(name)
	fs.mu.Unlock()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return data, err
	}
	if flip >= 0 && flip < int64(len(data)) {
		data[flip] ^= 0xFF
	}
	return data, nil
}

// Stat reports metadata for the volatile view of name. Like ReadFile it
// fails once the simulated machine is down, but it is not a read
// failpoint: existence probes carry no data whose loss a campaign could
// exercise, and keeping them out of the read count keeps FailNthRead
// positions stable across probe-only refactors.
func (fs *FaultFS) Stat(name string) (os.FileInfo, error) {
	fs.mu.Lock()
	if fs.crashed {
		fs.mu.Unlock()
		return nil, fmt.Errorf("%w (stat %s)", ErrCrashed, filepath.Base(name))
	}
	fs.mu.Unlock()
	return os.Stat(name)
}

// Rename performs the volatile rename and records the pending
// directory-entry operation; the durable view keeps the old entries until
// a SyncDir or a Sync of the new path commits it.
func (fs *FaultFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	if err := fs.enterLocked(OpRename, newpath); err != nil {
		fs.mu.Unlock()
		return err
	}
	oldRel, newRel := rel(fs.root, oldpath), rel(fs.root, newpath)
	fs.pending = append(fs.pending, dirop{
		rename: true, path: newRel, old: oldRel, oldDurable: fs.durable[oldRel],
	})
	if w, ok := fs.written[oldRel]; ok {
		fs.written[newRel] = w
		delete(fs.written, oldRel)
	}
	fs.mu.Unlock()
	return os.Rename(oldpath, newpath)
}

// SyncDir commits every pending directory-entry operation under dir.
func (fs *FaultFS) SyncDir(dir string) error {
	fs.mu.Lock()
	if err := fs.enterLocked(OpSyncDir, dir); err != nil {
		fs.mu.Unlock()
		return err
	}
	fs.commitPendingLocked("")
	fs.mu.Unlock()
	// The real directory fsync is unnecessary for the simulation but kept
	// so permission errors and exotic platforms still surface.
	return OS.SyncDir(dir)
}

// commitPendingLocked applies pending directory operations, in order. An
// empty path commits everything (SyncDir); a non-empty path commits only
// operations for that entry (Sync of the file commits its own creation or
// rename, per the journaled-metadata model).
func (fs *FaultFS) commitPendingLocked(path string) {
	kept := fs.pending[:0]
	for _, op := range fs.pending {
		if path != "" && op.path != path {
			kept = append(kept, op)
			continue
		}
		if op.rename {
			fs.durable[op.path] = op.oldDurable
			delete(fs.durable, op.old)
		} else if d, ok := fs.durable[op.path]; !ok || !d.exists {
			// Creation: the entry becomes durable; content is whatever has
			// been fsynced under this name (nothing yet → empty file).
			fs.durable[op.path] = dstate{exists: true}
		}
	}
	fs.pending = kept
}

// statVolatileLocked reports whether name exists in the volatile view.
func (fs *FaultFS) statVolatileLocked(name string) (os.FileInfo, bool) {
	fi, err := os.Stat(name)
	return fi, err == nil
}

// MaterializeDurable writes the simulated durable state into dst: exactly
// the files (and bytes) that survive the crash. Recovery then runs
// against dst with the plain OS filesystem, exactly as a restarted
// process would.
func (fs *FaultFS) MaterializeDurable(dst string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for name, d := range fs.durable {
		if !d.exists {
			continue
		}
		target := filepath.Join(dst, name)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(target, d.data, 0o644); err != nil {
			return err
		}
		if d.size > int64(len(d.data)) {
			if err := os.Truncate(target, d.size); err != nil {
				return err
			}
		}
	}
	return nil
}

// DurableLen reports the durable byte length of name (rel to root), for
// tests. ok is false when no durable entry exists.
func (fs *FaultFS) DurableLen(name string) (int, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.durable[name]
	if !ok || !d.exists {
		return 0, false
	}
	return int(d.size), true
}

// --- File implementation ----------------------------------------------------

type faultFile struct {
	fs   *FaultFS
	f    *os.File
	path string
	rel  string
}

// writeFault consults the per-write failpoints. It returns the number of
// bytes to actually apply and the error to report (nil for torn writes,
// which lie).
func (fs *FaultFS) writeFaultLocked(n int) (int, error) {
	fs.writes++
	switch fs.writes {
	case fs.noSpaceN:
		if fs.noSpaceN != 0 {
			fs.mInjected.Inc()
			return 0, ErrNoSpace
		}
	case fs.shortWriteN:
		if fs.shortWriteN != 0 {
			fs.mInjected.Inc()
			return n / 2, fmt.Errorf("%w: short write (%d of %d bytes)", ErrInjected, n/2, n)
		}
	case fs.tornWriteN:
		if fs.tornWriteN != 0 {
			fs.mInjected.Inc()
			return n / 2, nil // lies: persists half, reports success
		}
	}
	return n, nil
}

// readEnterLocked is the read-side gate shared by ReadFile and
// File.ReadAt: reads fail after a crash and count toward the
// fail-Nth-read failpoint, but never consume an I/O point. flip is the
// file offset of the byte a CorruptReadAt failpoint armed on this file
// inverts in what the read returns, or -1.
func (fs *FaultFS) readEnterLocked(name string) (flip int64, err error) {
	if fs.crashed {
		return -1, fmt.Errorf("%w (read %s)", ErrCrashed, filepath.Base(name))
	}
	fs.reads++
	if fs.failReadN != 0 && fs.reads == fs.failReadN {
		fs.mInjected.Inc()
		return -1, fmt.Errorf("%w: read %s failed", ErrInjected, filepath.Base(name))
	}
	if fs.corruptReadOf == "" || fs.corruptReadOf != filepath.Base(name) {
		return -1, nil
	}
	fs.mInjected.Inc()
	return fs.corruptReadOff, nil
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	ff.fs.mu.Lock()
	flip, err := ff.fs.readEnterLocked(ff.path)
	ff.fs.mu.Unlock()
	if err != nil {
		return 0, err
	}
	n, err := ff.f.ReadAt(p, off)
	if flip >= off && flip < off+int64(n) {
		p[flip-off] ^= 0xFF
	}
	return n, err
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	if err := ff.fs.enterLocked(OpWrite, ff.path); err != nil {
		ff.fs.mu.Unlock()
		return 0, err
	}
	apply, ferr := ff.fs.writeFaultLocked(len(p))
	ff.fs.mu.Unlock()
	n, err := ff.f.Write(p[:apply])
	off, serr := ff.f.Seek(0, io.SeekCurrent)
	if serr != nil {
		off = math.MaxInt64 // where the write ended is unknown: snapshot the whole file
	}
	ff.fs.wroteTo(ff.rel, off)
	if err != nil {
		return n, err
	}
	if ferr != nil {
		return n, ferr
	}
	if apply < len(p) {
		return len(p), nil // torn write: report success
	}
	return n, nil
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	ff.fs.mu.Lock()
	if err := ff.fs.enterLocked(OpWriteAt, ff.path); err != nil {
		ff.fs.mu.Unlock()
		return 0, err
	}
	apply, ferr := ff.fs.writeFaultLocked(len(p))
	ff.fs.mu.Unlock()
	n, err := ff.f.WriteAt(p[:apply], off)
	ff.fs.wroteTo(ff.rel, off+int64(n))
	if err != nil {
		return n, err
	}
	if ferr != nil {
		return n, ferr
	}
	if apply < len(p) {
		return len(p), nil
	}
	return n, nil
}

func (ff *faultFile) Truncate(size int64) error {
	ff.fs.mu.Lock()
	if err := ff.fs.enterLocked(OpTruncate, ff.path); err != nil {
		ff.fs.mu.Unlock()
		return err
	}
	ff.fs.written[ff.rel] = min(ff.fs.written[ff.rel], size)
	ff.fs.mu.Unlock()
	return ff.f.Truncate(size)
}

// wroteTo records that the file at rel holds written bytes up to end.
func (fs *FaultFS) wroteTo(rel string, end int64) {
	fs.mu.Lock()
	fs.written[rel] = max(fs.written[rel], end)
	fs.mu.Unlock()
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	if err := ff.fs.enterLocked(OpSync, ff.path); err != nil {
		ff.fs.mu.Unlock()
		return err
	}
	ff.fs.syncs++
	if ff.fs.failSyncN != 0 && ff.fs.syncs == ff.fs.failSyncN {
		ff.fs.mInjected.Inc()
		ff.fs.mu.Unlock()
		return fmt.Errorf("%w: fsync failed", ErrInjected)
	}
	ff.fs.mu.Unlock()

	// Capture the written prefix (through a fresh handle: this one may be
	// write-only) and the length as the new durable snapshot. The real fsync
	// is skipped: the simulation defines durability, and that keeps it fast.
	src, err := os.Open(ff.path)
	if err != nil {
		return err
	}
	defer src.Close()
	fi, err := src.Stat()
	if err != nil {
		return err
	}
	ff.fs.mu.Lock()
	data := make([]byte, min(ff.fs.written[ff.rel], fi.Size()))
	ff.fs.mu.Unlock()
	if _, err := io.ReadFull(src, data); err != nil {
		return err
	}
	ff.fs.mu.Lock()
	ff.fs.commitPendingLocked(ff.rel)
	ff.fs.durable[ff.rel] = dstate{exists: true, data: data, size: fi.Size()}
	ff.fs.mu.Unlock()
	return nil
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.f.Seek(offset, whence)
}

// Close never injects: a crashed process's descriptors are reaped by the
// OS regardless, and the engine's shutdown paths must be able to release
// handles after a simulated crash.
func (ff *faultFile) Close() error { return ff.f.Close() }
