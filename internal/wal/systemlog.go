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

// Log file header: magic plus the base LSN of the first frame in the
// file. Compaction discards a durable prefix by rewriting the file with a
// higher base, so LSNs stay stable forever while the file stays bounded.
// DALILOG2 frames one Append; the DALILOG1 files earlier versions wrote
// framed every record apart, and are refused rather than read.
const (
	logMagic      = "DALILOG2"
	legacyMagic   = "DALILOG1"
	logHeaderSize = 16
)

func encodeLogHeader(base LSN) []byte {
	return binary.LittleEndian.AppendUint64([]byte(logMagic), uint64(base))
}

func decodeLogHeader(h []byte) (LSN, error) {
	if len(h) >= len(legacyMagic) && string(h[:len(legacyMagic)]) == legacyMagic {
		return 0, fmt.Errorf("wal: %s is a %s log, one frame per record, a format this version cannot read", LogFileName, legacyMagic)
	}
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

// SystemLog is the system log: an in-memory tail of encoded frames plus
// the stable log on disk. The system log latch serializes flushes and
// appends so that LSNs are byte offsets into the (stable ++ tail) byte
// stream: a frame's LSN is its offset, and its records' LSNs fall inside it.
type SystemLog struct {
	latch latch.Latch //dbvet:latch syslog — the paper's "system log latch"
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
	// fileSize is the file's length with the header: the stable end, or up
	// to logExtendStep past it once a flush extended the file. Set by the
	// open, Compact and Reset, otherwise only by the flusher taking the role.
	fileSize int64

	fs        iofault.FS
	dir       string
	f         iofault.File
	baseLSN   LSN       // LSN of the first record in the file (post-compaction)
	stableEnd LSN       // everything below this LSN is on disk
	tail      []byte    // encoded records not yet flushed
	tailRecs  []tailRec // page-dirtying records among them
	tailCount int       // records encoded in tail (one Append may frame several)
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

	// poisoned, once set, permanently fails every Append/Flush (fail-stop
	// after a stable-log write/fsync failure). Guarded by the log latch.
	poisoned error

	noters []DirtyNoter

	// Observability. The metric handles are resolved once, by SetRegistry,
	// so hot paths pay only the atomic add, never a map lookup. Until the
	// owning database wires its registry in they are nil, and nil metrics
	// count nothing.
	mAppends     *obs.Counter
	mAppendBytes *obs.Counter
	mFlushes     *obs.Counter
	mFlushErrors *obs.Counter
	mPoisoned    *obs.Counter
	mCompactions *obs.Counter
	hFsyncNS     *obs.Histogram
	hFlushBytes  *obs.Histogram
	hGroupCommit *obs.Histogram
}

// SetRegistry wires the log's metrics into reg: append/flush counters
// (wal.appends, wal.flushes — the latter counts successful forces only),
// fsync-duration and flush-size histograms, the group-commit batch-size
// histogram, and wait instrumentation on the system log latch. Must be
// called before concurrent use begins (core.Open does this while building
// the database). A nil registry leaves the log counting into private,
// unregistered metrics.
func (l *SystemLog) SetRegistry(reg *obs.Registry) {
	l.latch.Instrument(reg.Histogram(obs.NameWALLatchWaitNS), reg.Counter(obs.NameWALLatchContends))
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

// logExtendStep is how far ahead of its records the flusher keeps the log
// file: a write ending past the file first extends it to the next multiple
// of the step past that end, so a small commit's fsync writes data blocks
// and journals no new file size. What lies past the stable end is a zero
// hole, where the valid prefix ends; the open truncates it before appending.
const logExtendStep = 1 << 20

// OpenLogSet opens (creating if necessary) the system log in dir on the
// real filesystem. It is kept for callers written against the
// multi-stream log set earlier versions had: streams must be 0 or 1, and
// the result is the one system log.
func OpenLogSet(dir string, pageSize, streams int) (*SystemLog, error) {
	if streams > 1 {
		return nil, fmt.Errorf("wal: %d log streams requested; the system log is a single stream", streams)
	}
	return OpenSystemLogFS(iofault.OS, dir, pageSize, nil)
}

// legacyStreamFile is the second stream file of the multi-stream log set
// earlier versions could write. A directory holding one has committed
// records this log cannot see, so every opener and reader refuses it
// rather than open it as a narrower log.
const legacyStreamFile = "system-1.log"

// refuseStreams fails, naming the file, when dir holds a multi-stream log.
// It only probes metadata: a refused directory is left as it was.
func refuseStreams(fsys iofault.FS, dir string) error {
	_, err := fsys.Stat(filepath.Join(dir, legacyStreamFile))
	switch {
	case err == nil:
		return fmt.Errorf("wal: %s holds %s, a multi-stream log this version cannot read", dir, legacyStreamFile)
	case errors.Is(err, fs.ErrNotExist):
		return nil
	default:
		return fmt.Errorf("wal: probe %s: %w", legacyStreamFile, err)
	}
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

// OpenSystemLogFS opens (creating if necessary) the stable log in dir
// through fsys, so storage-fault campaigns can inject fsync failures,
// short writes and crash points into it. pageSize translates physical
// record addresses into dirty page notifications. end, when non-nil, is
// the end of the file's valid prefix as a Cursor that just scanned it
// established (Cursor.End), and is adopted. Otherwise the open walks the
// file itself under a scan's rule: the valid prefix ends at the first
// frame the walker rejects, and a frame inside it that does not decode
// fails the open (ErrBadPayload). Either way, bytes past the end are a
// torn tail and are truncated away.
func OpenSystemLogFS(fsys iofault.FS, dir string, pageSize int, end *LSN) (l *SystemLog, err error) {
	if err := refuseStreams(fsys, dir); err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(filepath.Join(dir, LogFileName), os.O_RDWR|os.O_CREATE, 0o644)
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
	s := logBuf{start: base}
	if end != nil {
		if s.pos = int(*end - base); *end < base || int64(s.pos) > size-logHeaderSize {
			return nil, fmt.Errorf("wal: scanned log end %d outside the file's [%d, %d]", *end, base, base+LSN(size-logHeaderSize))
		}
	} else {
		if s, err = readLog(f); err != nil {
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
		fs: fsys, dir: dir, f: f, baseLSN: base,
		stableEnd: base + LSN(s.pos),
		fileSize:  valid,
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
// the future, below the current base, or not on a frame boundary is an
// error; compacting is atomic (write temp + rename). A failure after the
// rename poisons the log: the file at the log's path is then the
// compacted one, and a handle still on the old inode would flush into a
// file restart never reads.
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
	path := filepath.Join(l.dir, LogFileName)
	keep := make([]byte, l.stableEnd-keepFrom)
	if _, err := l.f.ReadAt(keep, logHeaderSize+int64(keepFrom-l.baseLSN)); err != nil {
		return fmt.Errorf("wal: compact read: %w", err)
	}
	// Verify the cut lands on a frame boundary (or end of file).
	if len(keep) > 0 && frameLen(keep, true) == 0 {
		return fmt.Errorf("wal: compact point %d is not a frame boundary", keepFrom)
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
	if err == nil {
		if _, err = nf.Seek(0, io.SeekEnd); err != nil {
			nf.Close()
		}
	}
	if err != nil {
		l.poisonLocked(fmt.Errorf("wal: reopen compacted log: %w", err))
		return l.poisoned
	}
	l.f.Close()
	l.f = nf
	l.baseLSN = keepFrom
	l.fileSize = logHeaderSize + int64(len(keep))
	l.mCompactions.Inc()
	return nil
}

// RegisterDirtyNoter adds a recipient for dirty-page notifications
// generated during flush. Must be called before concurrent use begins.
func (l *SystemLog) RegisterDirtyNoter(n DirtyNoter) {
	l.noters = append(l.noters, n)
}

// Append encodes records into the log tail as one frame, assigning their
// LSNs. The records become durable only at the next Flush, and all
// together: a torn tail never splits an Append. Append is used by
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

// appendLocked encodes recs as one frame at the end of the tail. A record's
// LSN is the frame's plus the record's offset in the frame's payload.
func (l *SystemLog) appendLocked(recs []*Record) {
	if len(recs) == 0 {
		return
	}
	frame, start := l.endLocked(), len(l.tail)
	b := append(l.tail, make([]byte, FrameHeaderSize)...)
	var st frameState
	for _, r := range recs {
		r.LSN = frame + LSN(len(b)-start-FrameHeaderSize)
		b = st.appendRecord(b, r)
		if r.Kind == KindPhysRedo && len(r.Data) > 0 {
			l.tailRecs = append(l.tailRecs, tailRec{addr: r.Addr, n: len(r.Data)})
		}
	}
	sealFrame(b[start:])
	l.tail = b
	l.tailCount += len(recs)
	l.mAppends.Add(uint64(len(recs)))
	l.mAppendBytes.Add(uint64(len(b) - start))
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
	l.flushDone.Broadcast()
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
		// Become the flusher for the whole current tail. The spare buffers
		// become the tail; the captured ones are this goroutine's alone
		// until it recycles them below.
		buf, recs, nrecs := l.tail, l.tailRecs, l.tailCount
		l.tail, l.tailRecs, l.tailCount = l.spareTail, l.spareRecs, 0
		l.spareTail, l.spareRecs = nil, nil
		l.flushing = true
		l.flushLen = len(buf)
		// A write ending past the file first extends it (logExtendStep). A
		// failed extension is a failed flush: it poisons the log below.
		var extend int64
		if end := logHeaderSize + int64(l.stableEnd-l.baseLSN) + int64(len(buf)); end > l.fileSize {
			l.fileSize = (end/logExtendStep + 1) * logExtendStep
			extend = l.fileSize
		}
		l.latch.Unlock()

		start := time.Now()
		var werr, serr error
		if extend != 0 {
			werr = l.f.Truncate(extend)
		}
		if werr == nil {
			_, werr = l.f.Write(buf)
		}
		if werr == nil {
			serr = l.f.Sync()
		}
		// One group-commit batch: record its size in records and bytes
		// and the time spent in the extend+write+sync. No latch is held here.
		l.hFsyncNS.Since(start)
		l.hFlushBytes.Observe(uint64(len(buf)))
		l.hGroupCommit.Observe(uint64(nrecs))
		if werr != nil || serr != nil {
			l.mFlushErrors.Inc()
		} else {
			l.mFlushes.Inc()
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
	l.fileSize = logHeaderSize
	l.tail, l.tailRecs, l.tailCount = l.tail[:0], l.tailRecs[:0], 0
	return nil
}

// Close flushes and closes the stable log, trimming the zero hole past
// the stable end, so a cleanly closed log is exactly as long as its
// records. A poisoned log is closed without flushing (the tail was
// already discarded at poison time).
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
	if end := logHeaderSize + int64(l.stableEnd-l.baseLSN); end < l.fileSize {
		if err := l.f.Truncate(end); err != nil {
			l.f.Close()
			return fmt.Errorf("wal: close: trim log: %w", err)
		}
	}
	return l.f.Close()
}

// CloseWithoutFlush closes the stable log discarding the in-memory tail.
// Used by crash simulation in tests: records not yet flushed are lost,
// exactly as they would be in a process crash, and the file keeps the
// zero hole an extension left past the stable end.
func (l *SystemLog) CloseWithoutFlush() error {
	l.latch.Lock()
	defer l.latch.Unlock()
	for l.flushing {
		l.flushDone.Wait()
	}
	return l.f.Close()
}

// LogBaseFS reports the base LSN of the stable log in dir (the oldest
// retained record), read through fsys; zero for a missing or empty log. It
// reads the 16-byte header through the file handle, not the file, and
// refuses a multi-stream directory.
func LogBaseFS(fsys iofault.FS, dir string) (LSN, error) {
	if err := refuseStreams(fsys, dir); err != nil {
		return 0, err
	}
	f, err := fsys.OpenFile(filepath.Join(dir, LogFileName), os.O_RDONLY, 0)
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
// a frame boundary of the valid prefix, at or above the log base
// (Cursor.FrameEnd); the prefix's end is one, a point in the torn tail or
// zero hole past it is not. Prior-state recovery uses this to cut history;
// the log must not be open for writing. The shortened log is forced
// durable before returning: a prior-state cut that silently reverts on
// crash would resurrect the history the caller just discarded.
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
	s, err := readLog(f)
	if err == nil && s.buf == nil {
		err = errors.New("wal: bad log header")
	}
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if lsn < s.start {
		return fmt.Errorf("wal: truncate point %d precedes log base %d", lsn, s.start)
	}
	// The boundaries are the ones the walker passes from the base; whatever
	// follows the valid prefix, zeros included, holds none.
	switch off, end := s.boundary(lsn); {
	case end < off:
		return fmt.Errorf("wal: truncate point %d beyond log end %d", lsn, s.start+LSN(end))
	case end > off:
		return fmt.Errorf("wal: truncate point %d is not a frame boundary", lsn)
	}
	if err := f.Truncate(logHeaderSize + int64(lsn-s.start)); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	return nil
}
