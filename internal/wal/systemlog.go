package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iofault"
	"repro/internal/latch"
	"repro/internal/mem"
	"repro/internal/obs"
)

// ErrLogPoisoned is returned by every Append/Flush after a write or fsync
// of the stable log has failed. The log is fail-stop: retrying a failed
// fsync is unsound (the kernel may already have discarded the dirty pages
// whose writeback failed, so a later fsync returning nil proves nothing
// about the lost bytes — the classic "fsyncgate" pattern). Once poisoned,
// the only safe continuation is to crash and run restart recovery, which
// trusts only what the stable log actually contains.
var ErrLogPoisoned = errors.New("wal: log poisoned by write/fsync failure (fail-stop)")

// ErrFlushWaitCanceled reports that a FlushCtx/AppendAndFlushCtx caller's
// context ended while it was queued behind another goroutine's force. The
// caller's records (if any) remain in the tail and may still become
// durable through a later force — the outcome is unresolved, not rolled
// back. The wrapped chain also matches the context's own error.
var ErrFlushWaitCanceled = errors.New("wal: group-commit wait abandoned by context")

// LogFileName is the name of the stable system log within a database
// directory.
const LogFileName = "system.log"

// Log file header: magic plus the base LSN of the first record in the
// file. Compaction discards a durable prefix by rewriting the file with a
// higher base, so LSNs stay stable forever while the file stays bounded.
const (
	logMagic      = "DALILOG1"
	logHeaderSize = 16
)

func encodeLogHeader(base LSN) []byte {
	return binary.LittleEndian.AppendUint64([]byte(logMagic), uint64(base))
}

func decodeLogHeader(h []byte) (LSN, error) {
	if len(h) < logHeaderSize || string(h[:8]) != logMagic {
		return 0, fmt.Errorf("wal: bad log header")
	}
	return LSN(binary.LittleEndian.Uint64(h[8:])), nil
}

// DirtyNoter receives the pages touched by physical log records as they
// are flushed to the stable log. Dalí notes dirtied pages in the dirty
// page table at flush time (paper §2.1); the checkpointer registers one
// noter per ping-pong image.
type DirtyNoter interface {
	NoteDirty(id mem.PageID)
}

// DirtyNoterFunc adapts a function to the DirtyNoter interface.
type DirtyNoterFunc func(id mem.PageID)

// NoteDirty implements DirtyNoter.
func (f DirtyNoterFunc) NoteDirty(id mem.PageID) { f(id) }

// SystemLog is the system log: an in-memory tail of encoded records plus
// the stable log on disk. The system log latch serializes flushes and
// appends so that LSNs are dense byte offsets into the (stable ++ tail)
// byte stream.
type SystemLog struct {
	latch latch.Latch //dbvet:latch stream — the paper's "system log latch"; one per stream in a sharded set
	// flushDone is signalled whenever a flush completes; committers
	// waiting for their records to become durable sleep on it (group
	// commit: the latch is NOT held across the fsync, so appends and
	// other commits proceed while one force is in flight, and a single
	// force covers every record appended before it started).
	flushDone *sync.Cond
	// flushing is true while some goroutine holds the flusher role.
	flushing bool
	// flushLen is the byte length of the buffer currently being forced
	// (its records sit between stableEnd and stableEnd+flushLen).
	flushLen int

	fs        iofault.FS
	dir       string
	name      string // file name within dir (LogFileName, or a stream file)
	stream    int    // stream index within a LogSet (0 for a standalone log)
	f         iofault.File
	baseLSN   LSN       // LSN of the first record in the file (post-compaction)
	stableEnd LSN       // everything below this LSN is on disk
	tail      []byte    // encoded records not yet flushed
	tailRecs  []tailRec // page-dirtying records among them
	tailCount int       // records encoded in tail
	// spareTail and spareRecs are the other half of the double buffer: the
	// emptied buffers of the last completed flush, which become the tail at
	// the next. A flusher owns what it swapped out (under the latch) until
	// its Write has returned and it holds the latch again; only then do the
	// buffers come back here, so an append never lands in bytes a Write is
	// reading. nil during a flush, after a poison, and when the last
	// flushed tail was over maxRetainedTail.
	spareTail []byte
	spareRecs []tailRec
	pageSize  int

	// gsnSrc, when non-nil, is the owning LogSet's shared global sequence
	// counter: appendLocked stamps every record from it (under this
	// stream's latch), giving cross-stream records a total order without a
	// shared append-path latch. nil on standalone (single-stream) logs.
	gsnSrc *atomic.Uint64
	// stampedGSN is the highest GSN stamped onto a record of this stream;
	// durableGSN is the stampedGSN value as of the capture of the last
	// completed flush. Both are guarded by the stream latch. Because a
	// stream's records are stamped in ascending GSN order, every volatile
	// (not yet durable) record has GSN > durableGSN — the owning LogSet's
	// commit path uses this to decide which sibling streams must be forced
	// before a commit is acknowledged (cross-stream prefix durability).
	stampedGSN uint64
	durableGSN uint64

	// poisoned, once set, permanently fails every Append/Flush (fail-stop
	// after a stable-log write/fsync failure). Guarded by the log latch.
	poisoned error
	// onPoison, when set, is called exactly once at poison time (with this
	// stream's latch held). The owning LogSet installs a hook here that
	// fail-stops the sibling streams: it must not acquire another stream's
	// latch synchronously (it flips a set-level atomic and fans out on a
	// fresh goroutine).
	onPoison func(cause error)

	noters []DirtyNoter

	flushes uint64
	appends uint64

	// Observability. The metric handles are resolved once (at open or
	// SetRegistry) so hot paths pay only the atomic add, never a map
	// lookup. reg defaults to nil (private metrics, no sinks) until the
	// owning database wires its registry in.
	reg          *obs.Registry
	mAppends     *obs.Counter
	mAppendBytes *obs.Counter
	mFlushes     *obs.Counter
	mFlushErrors *obs.Counter
	mPoisoned    *obs.Counter
	mCompactions *obs.Counter
	hFsyncNS     *obs.Histogram
	hFlushBytes  *obs.Histogram
	hGroupCommit *obs.Histogram
	// hGroupCommitStream, set by an owning multi-stream LogSet, additionally
	// records this stream's group-commit batch sizes under a per-stream
	// metric name, so an operator can see whether commit load spreads
	// across streams. nil (no-op) on standalone logs.
	hGroupCommitStream *obs.Histogram
}

// SetRegistry wires the log's metrics and events into reg: append/flush
// counters, fsync-duration and flush-size histograms, the group-commit
// batch-size histogram, and wait instrumentation on the system log latch.
// Must be called before concurrent use begins (core.Open does this while
// building the database). A nil registry leaves the log counting into
// private, unregistered metrics.
func (l *SystemLog) SetRegistry(reg *obs.Registry) {
	l.reg = reg
	l.initMetrics()
	l.latch.Instrument(reg, "wal", reg.Histogram(obs.NameWALLatchWaitNS), reg.Counter(obs.NameWALLatchContends))
}

func (l *SystemLog) initMetrics() {
	reg := l.reg
	l.mAppends = reg.Counter(obs.NameWALAppends)
	l.mAppendBytes = reg.Counter(obs.NameWALAppendBytes)
	l.mFlushes = reg.Counter(obs.NameWALFlushes)
	l.mFlushErrors = reg.Counter(obs.NameWALFlushErrors)
	l.mPoisoned = reg.Counter(obs.NameWALPoisoned)
	l.mCompactions = reg.Counter(obs.NameWALCompactions)
	l.hFsyncNS = reg.Histogram(obs.NameWALFsyncNS)
	l.hFlushBytes = reg.Histogram(obs.NameWALFlushBytes)
	l.hGroupCommit = reg.Histogram(obs.NameWALGroupCommit)
}

// endLocked is the LSN one past the last appended record, accounting for
// an in-flight flush buffer.
func (l *SystemLog) endLocked() LSN {
	return l.stableEnd + LSN(l.flushLen+len(l.tail))
}

// tailRec is the page footprint of one physical redo record in the tail,
// kept for the dirty-page notification at flush.
type tailRec struct {
	addr mem.Addr
	n    int
}

// maxRetainedTail bounds the buffers a flush recycles: a larger tail is
// dropped (with its tailRecs, which it outweighs), so a one-off bulk load
// logging megabytes in one transaction does not pin its high-water mark
// for the life of the log. A constant, not configuration: it only has to
// exceed the steady-state group-commit batch (tens to hundreds of
// kilobytes), which every workload shares.
const maxRetainedTail = 1 << 20

// OpenSystemLogFS opens (creating if necessary) the stable log in dir
// through fsys, so storage-fault campaigns can inject fsync failures,
// short writes and crash points into it. pageSize translates physical
// record addresses into dirty page notifications.
func OpenSystemLogFS(fsys iofault.FS, dir string, pageSize int) (*SystemLog, error) {
	return openStreamLogFS(fsys, dir, LogFileName, 0, pageSize, nil)
}

// readLogHeader reports the base LSN in f's header and f's size. An empty
// file (size 0) has no header yet and reports base 0.
func readLogHeader(f iofault.File) (base LSN, size int64, err error) {
	if size, err = f.Seek(0, io.SeekEnd); err != nil || size == 0 {
		return 0, 0, err
	}
	h := make([]byte, min(size, logHeaderSize))
	if _, err := f.ReadAt(h, 0); err != nil {
		return 0, 0, err
	}
	base, err = decodeLogHeader(h)
	return base, size, err
}

// openStreamLogFS opens one stream file of a log set (stream 0 is the
// historical system.log, so single-stream databases keep their layout).
// end, when non-nil, is the end of the file's valid prefix as a Cursor
// that just scanned it established (Cursor.Ends), and is adopted. Otherwise
// the open walks the file itself under a scan's rule: the valid prefix
// ends at the first frame the walker rejects, and a frame inside it that
// does not decode fails the open (ErrBadPayload). Either way, bytes past
// the end are a torn tail and are truncated away.
func openStreamLogFS(fsys iofault.FS, dir, name string, stream, pageSize int, end *LSN) (l *SystemLog, err error) {
	f, err := fsys.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open system log: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	base, size, err := readLogHeader(f)
	if err != nil {
		return nil, fmt.Errorf("wal: read system log: %w", err)
	}
	if size == 0 { // fresh log
		if _, err := f.Write(encodeLogHeader(0)); err != nil {
			return nil, fmt.Errorf("wal: init log header: %w", err)
		}
		size = logHeaderSize
	}
	s := streamBuf{start: base}
	if end != nil {
		if s.pos = int(*end - base); *end < base || int64(s.pos) > size-logHeaderSize {
			return nil, fmt.Errorf("wal: scanned log end %d outside the file's [%d, %d]", *end, base, base+LSN(size-logHeaderSize))
		}
	} else {
		s.buf = make([]byte, size-logHeaderSize)
		if _, err := f.ReadAt(s.buf, logHeaderSize); err != nil {
			return nil, fmt.Errorf("wal: read system log: %w", err)
		}
		for ok := true; ok; ok = s.ok {
			if err := s.advance(); err != nil {
				return nil, fmt.Errorf("wal: open system log: %w", err)
			}
		}
	}
	valid := logHeaderSize + int64(s.pos)
	if valid < size {
		if err := f.Truncate(valid); err != nil {
			return nil, fmt.Errorf("wal: truncate torn log tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return nil, err
	}
	l = &SystemLog{
		fs: fsys, dir: dir, name: name, stream: stream, f: f, baseLSN: base,
		stableEnd: base + LSN(s.pos),
		pageSize:  pageSize,
	}
	l.flushDone = sync.NewCond(&l.latch)
	return l, nil
}

// BaseLSN reports the LSN of the oldest record retained in the stable
// log (records below it have been compacted away).
func (l *SystemLog) BaseLSN() LSN {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.baseLSN
}

// Compact discards stable records below keepFrom by rewriting the log
// file with a higher base LSN. The caller must guarantee no consumer
// needs records below keepFrom (the checkpointer compacts to the current
// certified anchor's CK_end after toggling it). Compacting to an LSN in
// the future, below the current base, or not on a record boundary is an
// error; compacting is atomic (write temp + rename).
func (l *SystemLog) Compact(keepFrom LSN) error {
	l.latch.Lock()
	defer l.latch.Unlock()
	for l.flushing {
		l.flushDone.Wait()
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	if keepFrom < l.baseLSN {
		return fmt.Errorf("wal: compact to %d below base %d", keepFrom, l.baseLSN)
	}
	if keepFrom > l.stableEnd {
		return fmt.Errorf("wal: compact to %d beyond stable end %d", keepFrom, l.stableEnd)
	}
	if keepFrom == l.baseLSN {
		return nil
	}
	// Read back only the suffix that is kept. No flush is in flight and
	// the latch is held, so the file holds exactly the records in
	// [baseLSN, stableEnd); the discarded prefix — after a checkpoint,
	// nearly all of the file — is never loaded. A whole-log buffer (~140 MB
	// on tpcb_base) would be the largest live object at the moment the
	// collector is most likely to run, and the heap goal, hence peak RSS,
	// follows it (397 -> 532 MB measured).
	path := filepath.Join(l.dir, l.name)
	keep := make([]byte, l.stableEnd-keepFrom)
	if _, err := l.f.ReadAt(keep, logHeaderSize+int64(keepFrom-l.baseLSN)); err != nil {
		return fmt.Errorf("wal: compact read: %w", err)
	}
	// Verify the cut lands on a record boundary (or end of file).
	if len(keep) > 0 && frameLen(keep, true) == 0 {
		return fmt.Errorf("wal: compact point %d is not a record boundary", keepFrom)
	}
	tmp := path + ".compact"
	out, err := l.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := out.Write(encodeLogHeader(keepFrom)); err != nil {
		out.Close()
		return err
	}
	if _, err := out.Write(keep); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, path); err != nil {
		return err
	}
	// Reopen the handle positioned at the new end.
	nf, err := l.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := nf.Seek(0, 2); err != nil {
		nf.Close()
		return err
	}
	l.f.Close()
	l.f = nf
	l.baseLSN = keepFrom
	l.mCompactions.Inc()
	return nil
}

// RegisterDirtyNoter adds a recipient for dirty-page notifications
// generated during flush. Must be called before concurrent use begins.
func (l *SystemLog) RegisterDirtyNoter(n DirtyNoter) {
	l.noters = append(l.noters, n)
}

// Append encodes records into the log tail, assigning their LSNs. The
// records become durable only at the next Flush. Append is used by
// operation commit, which moves a transaction's pending local redo
// records into the tail as a unit before the operation's locks are
// released. Once the log is poisoned by a write/fsync failure, Append
// fails with a wrapped ErrLogPoisoned and appends nothing.
func (l *SystemLog) Append(recs ...*Record) error {
	l.latch.Lock()
	defer l.latch.Unlock()
	if l.poisoned != nil {
		return l.poisoned
	}
	l.appendLocked(recs)
	return nil
}

func (l *SystemLog) appendLocked(recs []*Record) {
	for _, r := range recs {
		r.LSN = l.endLocked()
		if l.gsnSrc != nil {
			r.GSN = l.gsnSrc.Add(1)
			l.stampedGSN = r.GSN
		}
		before := len(l.tail)
		l.tail = r.Encode(l.tail)
		if r.Kind == KindPhysRedo && len(r.Data) > 0 {
			l.tailRecs = append(l.tailRecs, tailRec{addr: r.Addr, n: len(r.Data)})
		}
		l.tailCount++
		l.appends++
		l.mAppends.Inc()
		l.mAppendBytes.Add(uint64(len(l.tail) - before))
		if l.reg.HasSinks() {
			l.reg.Emit(obs.LogAppendEvent{Bytes: len(l.tail) - before})
		}
	}
}

// poisonLocked fail-stops the log: the tail is discarded (it can never
// become durable), every future Append/Flush returns the poison error,
// and every goroutine sleeping on flushDone is woken so none blocks
// forever waiting for a flush that will never complete. Caller holds the
// log latch.
func (l *SystemLog) poisonLocked(cause error) {
	if l.poisoned != nil {
		return
	}
	l.poisoned = fmt.Errorf("%w: %w", ErrLogPoisoned, cause)
	l.tail, l.tailRecs, l.tailCount = nil, nil, 0
	l.spareTail, l.spareRecs = nil, nil
	l.mPoisoned.Inc()
	if l.reg.HasSinks() {
		l.reg.Emit(obs.LogPoisonedEvent{Cause: cause})
	}
	l.flushDone.Broadcast()
	if l.onPoison != nil {
		// Fan-out hook: one poisoned stream fail-stops the whole log set.
		// The hook runs with THIS stream's latch held, so it must not take
		// a sibling's latch synchronously (the LogSet hook flips an atomic
		// flag and poisons siblings from a fresh goroutine).
		l.onPoison(cause)
	}
}

// Poison fail-stops the log with the given cause, exactly as a failed
// write/fsync would: the tail is discarded, waiters wake, and every future
// Append/Flush fails. Used by the LogSet poison fan-out (a sibling stream
// failed) — once any stream of a set is poisoned, no stream of the set may
// acknowledge another commit. Poisoning an already poisoned log is a no-op.
func (l *SystemLog) Poison(cause error) {
	l.latch.Lock()
	defer l.latch.Unlock()
	l.poisonLocked(cause)
}

// Poisoned reports the poison error if the log has fail-stopped, nil
// otherwise.
func (l *SystemLog) Poisoned() error {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.poisoned
}

// End reports the LSN one past the last appended record (stable or not).
func (l *SystemLog) End() LSN {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.endLocked()
}

// StableEnd reports the paper's end_of_stable_log: every record below this
// LSN is known to be on disk.
func (l *SystemLog) StableEnd() LSN {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.stableEnd
}

// GSNWatermarks reports the stream's GSN high-water marks: stamped is the
// highest GSN assigned to a record of this stream, durable the highest
// GSN known to be on disk. stamped == durable means the stream holds no
// volatile stamped records; otherwise every volatile record's GSN lies in
// (durable, stamped]. Reading under the latch is what makes the pair safe
// for cross-stream commit decisions: a sibling's append holds its latch
// from stamp to tail insertion, so a stamp that predates our own commit
// record is always visible here.
func (l *SystemLog) GSNWatermarks() (stamped, durable uint64) {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.stampedGSN, l.durableGSN
}

// ForceGSNCtx blocks until every record of this stream stamped at or
// below dep is durable. It is the cross-stream dependency force of the
// set-level commit: unlike FlushCtx, which waits for the stream's current
// end, it returns as soon as the durable watermark covers the horizon —
// an in-flight group commit that captured the dependency records
// satisfies it without a second force, so concurrent committers on
// sibling streams mostly piggyback instead of queuing extra fsyncs. Only
// when the horizon is still volatile and no force is in flight does it
// start one (for the whole tail, as any flusher does).
func (l *SystemLog) ForceGSNCtx(ctx context.Context, dep uint64) error {
	l.latch.Lock()
	defer l.latch.Unlock()
	var stopWatch chan struct{}
	for l.durableGSN < dep && l.durableGSN < l.stampedGSN {
		if l.poisoned != nil {
			return l.poisoned
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrFlushWaitCanceled, err)
		}
		if l.flushing {
			// The in-flight force may advance the durable watermark past
			// dep; re-check after it settles instead of queuing another.
			if ctx.Done() != nil && stopWatch == nil {
				stopWatch = make(chan struct{})
				defer close(stopWatch)
				go l.watchFlushWait(ctx, stopWatch)
			}
			l.flushDone.Wait()
			continue
		}
		if err := l.flushToLocked(ctx, l.endLocked()); err != nil {
			return err
		}
	}
	return nil
}

// Flush forces everything appended so far to the stable log and notifies
// the registered dirty noters of every page touched by a flushed physical
// record. The system log latch is released during the disk force, so
// appends and other commits proceed meanwhile (group commit); Flush
// returns once every record appended before the call is durable.
func (l *SystemLog) Flush() error {
	return l.FlushCtx(context.Background())
}

// FlushCtx is Flush with a context bounding the group-commit wait: if the
// context ends while the call is queued behind another goroutine's force,
// FlushCtx gives up and returns the context's error. A force this
// goroutine itself started is always carried to completion — cancellation
// never abandons a write in flight, it only stops waiting for one.
func (l *SystemLog) FlushCtx(ctx context.Context) error {
	l.latch.Lock()
	defer l.latch.Unlock()
	if l.poisoned != nil {
		return l.poisoned
	}
	return l.flushToLocked(ctx, l.endLocked())
}

// flushToLocked blocks until stableEnd >= target, becoming the flusher
// when no other goroutine is forcing. Callers hold the latch; it is
// dropped across the disk write and reacquired. The context bounds only
// the time spent waiting on another goroutine's force.
func (l *SystemLog) flushToLocked(ctx context.Context, target LSN) error {
	var stopWatch chan struct{}
	for l.stableEnd < target {
		if l.poisoned != nil {
			// A previous flush failed: the records below target can never
			// become durable. Fail-stop instead of blocking forever.
			return l.poisoned
		}
		if err := ctx.Err(); err != nil {
			// Still short of target and the caller's deadline has passed.
			// Appended records stay in the tail; a later force will carry
			// them, so the caller's outcome is unresolved, not aborted.
			return fmt.Errorf("%w: %w", ErrFlushWaitCanceled, err)
		}
		if l.flushing {
			// Another goroutine is forcing; its completion may cover us.
			// Before sleeping, arm a watcher (once) that wakes the
			// group-commit sleepers when the context ends, so a canceled
			// waiter observes it promptly.
			if ctx.Done() != nil && stopWatch == nil {
				stopWatch = make(chan struct{})
				defer close(stopWatch)
				go l.watchFlushWait(ctx, stopWatch)
			}
			l.flushDone.Wait()
			continue
		}
		if len(l.tail) == 0 {
			// Nothing pending and nobody flushing: target was covered by
			// a force that completed between our checks.
			break
		}
		// Become the flusher for the whole current tail. The captured
		// buffer holds every record appended so far, so on success the
		// durable-GSN watermark advances to the stamp high-water mark read
		// here, under the latch, before the force begins. The spare buffers
		// become the tail; the captured ones are this goroutine's alone
		// until it recycles them below.
		buf, recs, nrecs := l.tail, l.tailRecs, l.tailCount
		capturedGSN := l.stampedGSN
		l.tail, l.tailRecs, l.tailCount = l.spareTail, l.spareRecs, 0
		l.spareTail, l.spareRecs = nil, nil
		l.flushing = true
		l.flushLen = len(buf)
		l.latch.Unlock()

		start := time.Now()
		_, werr := l.f.Write(buf)
		var serr error
		if werr == nil {
			serr = l.f.Sync()
		}
		fsync := time.Since(start)
		ferr := werr
		if ferr == nil {
			ferr = serr
		}
		// One group-commit batch: record its size in records and bytes
		// and the time spent in the write+sync. No latch is held here.
		l.hFsyncNS.ObserveDuration(fsync)
		l.hFlushBytes.Observe(uint64(len(buf)))
		l.hGroupCommit.Observe(uint64(nrecs))
		l.hGroupCommitStream.Observe(uint64(nrecs))
		if ferr != nil {
			l.mFlushErrors.Inc()
		} else {
			l.mFlushes.Inc()
		}
		if l.reg.HasSinks() {
			l.reg.Emit(obs.LogFlushEvent{Records: nrecs, Bytes: len(buf), Fsync: fsync, Err: ferr})
		}

		//dbvet:allow latchorder flush reacquires the log latch it dropped for disk I/O; the caller's bracket releases it
		l.latch.Lock()
		l.flushing = false
		l.flushLen = 0
		if werr != nil || serr != nil {
			// Fail-stop (the fsyncgate fix): after a failed write or fsync
			// the on-disk state of these bytes is unknown, and the kernel
			// may already have dropped the dirty pages — re-queuing the
			// tail and retrying would let a later fsync "succeed" without
			// the lost bytes ever reaching disk, silently breaking the WAL
			// contract. Poison the log instead: every waiter wakes with
			// ErrLogPoisoned, every future Append/Flush fails, and the only
			// way forward is crash + restart recovery from the stable
			// prefix.
			stage := "flush"
			if werr == nil {
				stage = "sync"
			}
			cause := werr
			if cause == nil {
				cause = serr
			}
			l.poisonLocked(fmt.Errorf("wal: %s: %w", stage, cause))
			return l.poisoned
		}
		l.stableEnd += LSN(len(buf))
		if capturedGSN > l.durableGSN {
			l.durableGSN = capturedGSN
		}
		l.flushes++
		for _, tr := range recs {
			first := mem.PageID(uint64(tr.addr) / uint64(l.pageSize))
			last := mem.PageID((uint64(tr.addr) + uint64(tr.n) - 1) / uint64(l.pageSize))
			for id := first; id <= last; id++ {
				for _, n := range l.noters {
					n.NoteDirty(id)
				}
			}
		}
		// The Write has returned and the latch is held: the captured
		// buffers are dead and may take appends again.
		if cap(buf) <= maxRetainedTail {
			l.spareTail, l.spareRecs = buf[:0], recs[:0]
		}
		l.flushDone.Broadcast()
	}
	return nil
}

// AppendAndFlush appends records and forces them durable before
// returning (transaction commit). Concurrent committers share forces:
// whichever becomes the flusher covers everyone appended before it.
func (l *SystemLog) AppendAndFlush(recs ...*Record) error {
	return l.AppendAndFlushCtx(context.Background(), recs...)
}

// AppendAndFlushCtx is AppendAndFlush with a context bounding the
// group-commit wait. A context that has already ended fails the call
// before anything is appended (the caller can still abort cleanly). If
// the context ends while waiting on another goroutine's force, the
// records remain in the tail — they may still become durable through a
// later force — and the context's error is returned; the caller must
// treat the outcome as unresolved, not aborted.
func (l *SystemLog) AppendAndFlushCtx(ctx context.Context, recs ...*Record) error {
	l.latch.Lock()
	defer l.latch.Unlock()
	if l.poisoned != nil {
		return l.poisoned
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.appendLocked(recs)
	return l.flushToLocked(ctx, l.endLocked())
}

// watchFlushWait wakes every group-commit sleeper when ctx ends; stop
// (closed when the waiting call returns) bounds its lifetime.
func (l *SystemLog) watchFlushWait(ctx context.Context, stop <-chan struct{}) {
	select {
	case <-ctx.Done():
	case <-stop:
		return
	}
	l.latch.Lock()
	l.flushDone.Broadcast()
	l.latch.Unlock()
}

// Flushes reports the number of flush operations performed.
func (l *SystemLog) Flushes() uint64 {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.flushes
}

// Appends reports the number of records appended.
func (l *SystemLog) Appends() uint64 {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.appends
}

// Reset discards the entire log (stable and tail) and restarts LSNs from
// zero. Corruption recovery ends with a checkpoint that "invalidates all
// archives" (paper §4.3); resetting the log afterwards keeps the anchor,
// checkpoint and log mutually consistent.
func (l *SystemLog) Reset() error {
	l.latch.Lock()
	defer l.latch.Unlock()
	for l.flushing {
		l.flushDone.Wait()
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	// A reset that fails midway leaves the stable log in an unknown state
	// (possibly truncated, possibly a half-written header): fail-stop, same
	// as a failed flush.
	if err := l.f.Truncate(0); err != nil {
		l.poisonLocked(err)
		return fmt.Errorf("wal: reset: %w", l.poisoned)
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		l.poisonLocked(err)
		return l.poisoned
	}
	if _, err := l.f.Write(encodeLogHeader(0)); err != nil {
		l.poisonLocked(err)
		return fmt.Errorf("wal: reset header: %w", l.poisoned)
	}
	if err := l.f.Sync(); err != nil {
		l.poisonLocked(err)
		return l.poisoned
	}
	l.baseLSN = 0
	l.stableEnd = 0
	l.tail, l.tailRecs, l.tailCount = l.tail[:0], l.tailRecs[:0], 0
	l.stampedGSN = 0
	l.durableGSN = 0
	return nil
}

// Close flushes and closes the stable log. A poisoned log is closed
// without flushing (the tail was already discarded at poison time).
func (l *SystemLog) Close() error {
	l.latch.Lock()
	defer l.latch.Unlock()
	if l.poisoned != nil {
		l.f.Close()
		return l.poisoned
	}
	if err := l.flushToLocked(context.Background(), l.endLocked()); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// CloseWithoutFlush closes the stable log discarding the in-memory tail.
// Used by crash simulation in tests: records not yet flushed are lost,
// exactly as they would be in a process crash.
func (l *SystemLog) CloseWithoutFlush() error {
	l.latch.Lock()
	defer l.latch.Unlock()
	for l.flushing {
		l.flushDone.Wait()
	}
	return l.f.Close()
}

// LogBaseFS reports the base LSN of the stable log in dir (the oldest
// retained record), read through fsys; zero for a missing or empty log.
func LogBaseFS(fsys iofault.FS, dir string) (LSN, error) {
	return logBaseFileFS(fsys, dir, LogFileName)
}

// logBaseFileFS is LogBaseFS for one named stream file. It reads the
// 16-byte header through the file handle, not the file.
func logBaseFileFS(fsys iofault.FS, dir, name string) (LSN, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, name), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	base, _, err := readLogHeader(f)
	return base, err
}

// TruncateAtFS discards every stable record at or after lsn, which must be
// a record boundary at or above the log base. Prior-state recovery uses
// this to cut history; the log must not be open for writing. The shortened
// log is forced durable before returning: a prior-state cut that silently
// reverts on crash would resurrect the history the caller just discarded.
func TruncateAtFS(fsys iofault.FS, dir string, lsn LSN) (err error) {
	f, err := fsys.OpenFile(filepath.Join(dir, LogFileName), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	base, size, err := readLogHeader(f)
	if err == nil && size == 0 {
		err = errors.New("wal: bad log header")
	}
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	cut := logHeaderSize + int64(lsn-base)
	if lsn < base {
		return fmt.Errorf("wal: truncate point %d precedes log base %d", lsn, base)
	}
	if cut > size {
		return fmt.Errorf("wal: truncate point %d beyond log end", lsn)
	}
	// A record boundary is where the walker finds a frame (or the end of
	// the file). Only the tail being discarded is read.
	rest := make([]byte, size-cut)
	if _, err := f.ReadAt(rest, cut); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if len(rest) > 0 && frameLen(rest, true) == 0 {
		return fmt.Errorf("wal: truncate point %d is not a record boundary", lsn)
	}
	if err := f.Truncate(cut); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	return nil
}
