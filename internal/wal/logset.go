// Log sets: the system log sharded into S independent streams.
//
// The single system log latch is the storage manager's scalability
// ceiling — every committer serializes through one tail and one
// group-commit queue. A LogSet splits the log into S stream files, each a
// full SystemLog with its own latch, tail and group-commit queue, so
// appends and fsyncs on different streams overlap. Global ordering is
// recovered from a GSN (global sequence number): one atomic counter
// shared by the set, stamped on every record under the owning stream's
// latch. Conflicting transactions serialize through the lock manager
// (records enter the log before locks are released), so GSN order agrees
// with the commit order an observer could see; recovery merges the
// streams by GSN into one total order (cf. Wu et al., "Fast Failure
// Recovery for Main-Memory DBMSs on Multicores": partitioned logging with
// sequence-number merge recovers near-linearly with core count).
//
// Durability is prefix-durability in GSN order: a commit is acknowledged
// only once every record stamped before it — on any stream — is on disk.
// The commit path reads each sibling's (stamped, durable) GSN watermarks
// and forces, in parallel with its own stream, any sibling still holding
// a volatile record below the committing batch; recovery double-checks
// the property by verifying the merged scan's stamped GSNs are dense
// (Cursor.Gaps), with per-session epoch records absorbing the counter
// re-seed at open.
//
// Stream 0 is the historical system.log. A set opened with S=1 never
// stamps GSNs and writes byte-identical output to the pre-stream format,
// so existing databases upgrade (and downgrade) without conversion.
package wal

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/iofault"
	"repro/internal/obs"
)

// StreamFileName is the on-disk name of log stream i within a database
// directory. Stream 0 keeps the historical single-log name so that
// single-stream databases retain their exact layout.
func StreamFileName(i int) string {
	if i == 0 {
		return LogFileName
	}
	return fmt.Sprintf("system-%d.log", i)
}

// LogSet is a set of S independent log streams acting as one logical
// system log. Transactions are assigned a stream by transaction ID, append
// under that stream's latch only, and group-commit independently;
// cross-stream order is carried by the GSN stamped on every record.
//
// Poison is set-global: a write/fsync failure on any stream fail-stops
// every stream (one torn stream invalidates the WAL contract for the
// whole database), and no commit is acknowledged after any stream
// poisons.
type LogSet struct {
	streams []*SystemLog

	// gsn is the shared global sequence counter. Streams stamp records from
	// it under their own latch (never a shared one); it is seeded above the
	// total bytes ever written so GSNs always compare greater than the LSNs
	// of pre-stream records.
	gsn atomic.Uint64

	// poison holds the first poison cause observed on any stream. It is set
	// synchronously (under the failing stream's latch) before that stream's
	// flush returns, so a commit that starts after a poison can never be
	// acknowledged: AppendAndFlushCtx re-checks it after a successful flush.
	poison atomic.Pointer[poisonCell]

	gGSN *obs.Gauge
}

type poisonCell struct{ err error }

// OpenLogSet opens (creating if necessary) a log set of at least the
// given number of streams in dir on the real filesystem.
func OpenLogSet(dir string, pageSize, streams int) (*LogSet, error) {
	return OpenLogSetFS(iofault.OS, dir, pageSize, streams, nil)
}

// OpenLogSetFS is OpenLogSet through an iofault.FS. The set is widened to
// cover every stream file already present in dir: opening a database with
// fewer streams than it was written with would hide committed records
// from recovery, so the on-disk stream count is a floor, never shrunk.
// ends, from a caller that has just scanned the set with a Cursor
// (Cursor.Ends), makes stream i resume at ends[i] instead of being read
// and walked a second time; streams beyond the vector (all of them when
// it is nil) are walked.
func OpenLogSetFS(fsys iofault.FS, dir string, pageSize, streams int, ends []LSN) (*LogSet, error) {
	s := streams
	if s < 1 {
		s = 1
	}
	// One Stat-based detection pass decides the width (probes cost a
	// metadata lookup each, never a file read); the on-disk count is a
	// floor, never shrunk.
	existing, err := DetectStreamsFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	if existing > s {
		s = existing
	}
	l := &LogSet{}
	for i := 0; i < s; i++ {
		var end *LSN
		if i < len(ends) {
			end = &ends[i]
		}
		sl, err := openStreamLogFS(fsys, dir, StreamFileName(i), i, pageSize, end)
		if err != nil {
			for _, open := range l.streams {
				open.CloseWithoutFlush()
			}
			return nil, fmt.Errorf("wal: open stream %d: %w", i, err)
		}
		l.streams = append(l.streams, sl)
	}
	// Make every stream file's directory entry durable before any commit
	// can be acknowledged. Without this a crash could lose an unsynced,
	// still-empty stream file while a sibling holds acked commits, and a
	// later open would miscount the set (a gap ends detection). Stream
	// files are synced in index order, so the durable set is always a
	// prefix. Single-stream sets skip this to keep the historical open
	// sequence (and its crash-point enumeration) exactly as it was.
	if s > 1 {
		for i, sl := range l.streams {
			//dbvet:allow errflow open-time sync failure fails the whole open; no log set exists yet to poison and no commit has been acked
			if err := sl.f.Sync(); err != nil {
				l.CloseWithoutFlush()
				return nil, fmt.Errorf("wal: sync stream %d at open: %w", i, err)
			}
		}
		if err := fsys.SyncDir(dir); err != nil {
			l.CloseWithoutFlush()
			return nil, fmt.Errorf("wal: sync log dir at open: %w", err)
		}
	}
	// Seed the GSN above every byte offset already written: GSN values are
	// then strictly greater than any pre-stream LSN, so OrderLSN comparisons
	// across a stream-count change remain conservative-correct (at most one
	// GSN is consumed per record, and a record costs at least one byte).
	var seed uint64
	for _, sl := range l.streams {
		seed += uint64(sl.End())
	}
	l.gsn.Store(seed)
	for _, sl := range l.streams {
		if s > 1 {
			// Single-stream sets never stamp GSNs, keeping their on-disk
			// format byte-identical to the pre-stream layout.
			sl.gsnSrc = &l.gsn
		}
		sl.onPoison = l.onStreamPoison
	}
	if s > 1 {
		// Open a GSN stamping session: the epoch record takes the session's
		// first stamp (seed+1), so a recovery scan can tell the legitimate
		// jump a re-seeded counter makes at open from a genuine hole in the
		// sequence (Cursor.Gaps). It is appended, not forced — the first
		// commit's cross-stream dependency force (AppendAndFlushCtx) makes
		// it durable before any commit of the session is acknowledged.
		if err := l.streams[0].Append(&Record{Kind: KindGSNEpoch}); err != nil {
			l.CloseWithoutFlush()
			return nil, fmt.Errorf("wal: append gsn epoch: %w", err)
		}
	}
	l.gGSN = (*obs.Registry)(nil).Gauge(obs.NameWALGSN)
	return l, nil
}

// streamFileExists probes for stream i's file with a metadata Stat (never
// a content read — log files are large and probes are per-open). An error
// other than non-existence is propagated, not folded into "absent": an
// injected or real I/O failure must never make the set look narrower than
// it is.
func streamFileExists(fsys iofault.FS, dir string, i int) (bool, error) {
	_, err := fsys.Stat(filepath.Join(dir, StreamFileName(i)))
	if err == nil {
		return true, nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return false, err
}

// onStreamPoison is installed as every stream's poison hook. It runs with
// the failing stream's latch held, so it must not acquire a sibling latch
// synchronously: it publishes the set-level poison (which gates all future
// commit acks) and fans the fail-stop out to the sibling streams on a
// fresh goroutine.
func (l *LogSet) onStreamPoison(cause error) {
	cell := &poisonCell{err: fmt.Errorf("%w: stream failure: %w", ErrLogPoisoned, cause)}
	if !l.poison.CompareAndSwap(nil, cell) {
		return // a sibling already poisoned the set; fan-out is in flight
	}
	if len(l.streams) > 1 {
		go l.poisonSiblings(cause)
	}
}

// poisonSiblings fail-stops every stream of the set. Poisoning is
// idempotent, so the originating stream (and any racing failures) are
// no-ops; each sibling wakes its own group-commit waiters with
// ErrLogPoisoned.
func (l *LogSet) poisonSiblings(cause error) {
	for _, s := range l.streams {
		s.Poison(fmt.Errorf("sibling stream failed: %w", cause))
	}
}

// Poisoned reports the set-level poison error if any stream has
// fail-stopped, nil otherwise.
func (l *LogSet) Poisoned() error {
	if c := l.poison.Load(); c != nil {
		return c.err
	}
	return nil
}

// streamFor routes a record to its stream: transaction records go to the
// transaction's home stream (assigned by ID at Begin, so a transaction's
// records stay in one stream in append order), 2PC decision records are
// spread by global transaction ID, and everything else (audit records,
// whose LSNs define Audit_SN) stays on stream 0.
func (l *LogSet) streamFor(r *Record) int {
	n := len(l.streams)
	if n == 1 {
		return 0
	}
	if r.Txn != 0 {
		return int(uint64(r.Txn) % uint64(n))
	}
	if r.Kind == KindTxnDecision {
		return int(r.GID % uint64(n))
	}
	return 0
}

// StreamOf reports which stream records of transaction txn append to.
func (l *LogSet) StreamOf(txn TxnID) int {
	return l.streamFor(&Record{Txn: txn})
}

// Append encodes records into their stream's tail, assigning LSNs (and,
// on multi-stream sets, GSNs). All records of one call must route to the
// same stream — they belong to one transaction (operation commit moves a
// transaction's redo records as a unit).
func (l *LogSet) Append(recs ...*Record) error {
	if len(recs) == 0 {
		return nil
	}
	return l.streams[l.streamFor(recs[0])].Append(recs...)
}

// AppendAndFlush appends records to their stream and forces them durable
// (transaction commit). Committers on the same stream share forces;
// committers on different streams fsync in parallel.
func (l *LogSet) AppendAndFlush(recs ...*Record) error {
	return l.AppendAndFlushCtx(context.Background(), recs...)
}

// AppendAndFlushCtx is AppendAndFlush with a context bounding the
// group-commit wait.
//
// On a multi-stream set the flush enforces the WAL prefix property across
// streams before the commit is acknowledged. The committing transaction
// may depend on records it never wrote: an op-commit another transaction
// appended (without flushing) before releasing its operation locks, or
// index state observed under a structure latch. Every such record was
// stamped before this batch, so its GSN is below the batch's first stamp —
// but it may sit volatile in a sibling stream's tail, because sibling
// group-commit queues run independently. A commit acknowledged while such
// a record is volatile would let a crash erase the predecessor underneath
// a durably-committed dependent (a single shared log prevented this by
// flushing its prefix wholesale). So before the home stream's flush the
// commit forces every sibling still holding a volatile record stamped
// below this batch — the active form of Wu et al.'s passive group commit:
// the ack waits until the global durable-GSN watermark covers the batch's
// dependency horizon.
//
// The two force rounds are ordered, not merged: the sibling forces (which
// do run in parallel with each other) must complete before the home
// stream's flush starts. Flushing the commit record concurrently with its
// dependencies would open a window where the commit is durable while a
// dependency is still volatile — a crash there recovers a committed
// transaction on top of a hole, the exact anomaly the force exists to
// prevent. Ordering the rounds keeps the on-disk image write-ahead at
// every instant: a commit record becomes durable only after everything
// below its dependency horizon already is.
//
// After the forces the set-level poison is re-checked: once any stream
// has poisoned, no stream of the set acknowledges another commit, even if
// the fsyncs here succeeded — the database is fail-stop as a unit.
func (l *LogSet) AppendAndFlushCtx(ctx context.Context, recs ...*Record) error {
	if len(recs) == 0 {
		return nil
	}
	home := l.streams[l.streamFor(recs[0])]
	if len(l.streams) == 1 {
		return home.AppendAndFlushCtx(ctx, recs...)
	}
	if err := ctx.Err(); err != nil {
		// Fail before anything is appended (the caller can still abort).
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := home.Append(recs...); err != nil {
		return err
	}
	// dep is the dependency horizon: every record the batch could depend
	// on was stamped strictly before the batch's first record. A sibling
	// needs forcing iff it still holds a volatile record at or below dep —
	// volatile records' GSNs all exceed the stream's durable watermark, so
	// that reduces to durable < dep (watermarks read under the sibling's
	// latch, which orders them after any stamp that precedes ours).
	dep := recs[0].GSN - 1
	var siblings []*SystemLog
	for _, s := range l.streams {
		if s == home {
			continue
		}
		if stamped, durable := s.GSNWatermarks(); stamped > durable && durable < dep {
			siblings = append(siblings, s)
		}
	}
	var err error
	switch len(siblings) {
	case 0:
	case 1:
		err = siblings[0].ForceGSNCtx(ctx, dep)
	default:
		errs := make([]error, len(siblings))
		var wg sync.WaitGroup
		for i, s := range siblings {
			wg.Add(1)
			go func(i int, s *SystemLog) {
				defer wg.Done()
				errs[i] = s.ForceGSNCtx(ctx, dep)
			}(i, s)
		}
		// Each per-stream ForceGSNCtx honors ctx itself, so this join is
		// bounded by the caller's context.
		//dbvet:allow ctxflow the joined goroutines run ForceGSNCtx with this ctx, which unblocks on cancellation
		wg.Wait()
		err = errors.Join(errs...)
	}
	if err == nil {
		// Dependencies are durable; only now may the commit record be.
		err = home.FlushCtx(ctx)
	}
	if err == nil {
		if perr := l.Poisoned(); perr != nil {
			return perr
		}
		l.gGSN.Set(int64(l.gsn.Load()))
	}
	return err
}

// Flush forces every stream's tail durable.
func (l *LogSet) Flush() error {
	return l.FlushCtx(context.Background())
}

// FlushCtx is Flush with a context bounding each stream's group-commit
// wait. Streams flush in parallel so their fsyncs overlap; the first
// error (if any) is returned after all streams settle.
func (l *LogSet) FlushCtx(ctx context.Context) error {
	if len(l.streams) == 1 {
		return l.streams[0].FlushCtx(ctx)
	}
	errs := make([]error, len(l.streams))
	var wg sync.WaitGroup
	for i, s := range l.streams {
		wg.Add(1)
		go func(i int, s *SystemLog) {
			defer wg.Done()
			errs[i] = s.FlushCtx(ctx)
		}(i, s)
	}
	// Each per-stream FlushCtx honors ctx itself (its group-commit wait
	// returns on ctx.Done), so this join is bounded by the same context the
	// caller supplied: every branch it waits on unblocks when ctx ends.
	//dbvet:allow ctxflow the joined goroutines run FlushCtx with this ctx, which unblocks on cancellation
	wg.Wait()
	return errors.Join(errs...)
}

// NumStreams reports the number of streams in the set.
func (l *LogSet) NumStreams() int { return len(l.streams) }

// Stream returns stream i (tests and tools; engine code routes through
// the set API).
func (l *LogSet) Stream(i int) *SystemLog { return l.streams[i] }

// GSN reports the last global sequence number stamped (zero on
// single-stream sets, which never stamp).
func (l *LogSet) GSN() uint64 { return l.gsn.Load() }

// End reports stream 0's end. Single-stream callers (and Audit_SN
// bookkeeping, which lives on stream 0) see exactly the historical
// system-log semantics.
func (l *LogSet) End() LSN { return l.streams[0].End() }

// StableEnd reports stream 0's end_of_stable_log.
func (l *LogSet) StableEnd() LSN { return l.streams[0].StableEnd() }

// BaseLSN reports stream 0's base LSN.
func (l *LogSet) BaseLSN() LSN { return l.streams[0].BaseLSN() }

// StableEnds reports every stream's end_of_stable_log as a vector indexed
// by stream. Captured under the checkpoint barrier (when no flush is in
// flight and all streams are forced), it is a consistent cut: the
// per-stream positions a checkpoint image is update-consistent with.
func (l *LogSet) StableEnds() []LSN {
	ends := make([]LSN, len(l.streams))
	for i, s := range l.streams {
		ends[i] = s.StableEnd()
	}
	return ends
}

// Ends reports every stream's end (stable or not), indexed by stream.
func (l *LogSet) Ends() []LSN {
	ends := make([]LSN, len(l.streams))
	for i, s := range l.streams {
		ends[i] = s.End()
	}
	return ends
}

// BaseLSNs reports every stream's base LSN, indexed by stream.
func (l *LogSet) BaseLSNs() []LSN {
	bases := make([]LSN, len(l.streams))
	for i, s := range l.streams {
		bases[i] = s.BaseLSN()
	}
	return bases
}

// Compact discards stream 0's records below keepFrom. Kept for
// single-stream callers; multi-stream truncation uses CompactVector.
func (l *LogSet) Compact(keepFrom LSN) error { return l.streams[0].Compact(keepFrom) }

// CompactVector discards each stream's records below its entry in keep
// (the stream-vector truncation point a certified checkpoint anchors).
// A vector shorter than the set compacts only the streams it covers — an
// anchor written before the set was widened simply retains the newer
// streams whole.
func (l *LogSet) CompactVector(keep []LSN) error {
	var errs []error
	for i, s := range l.streams {
		if i >= len(keep) {
			break
		}
		if err := s.Compact(keep[i]); err != nil {
			errs = append(errs, fmt.Errorf("stream %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Reset discards every stream (stable and tail) and restarts LSNs and the
// GSN from zero (corruption recovery's post-checkpoint log reset).
func (l *LogSet) Reset() error {
	var errs []error
	for i, s := range l.streams {
		if err := s.Reset(); err != nil {
			errs = append(errs, fmt.Errorf("stream %d: %w", i, err))
		}
	}
	l.gsn.Store(0)
	return errors.Join(errs...)
}

// Close flushes and closes every stream.
func (l *LogSet) Close() error {
	var errs []error
	for _, s := range l.streams {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// CloseWithoutFlush closes every stream discarding in-memory tails
// (crash simulation).
func (l *LogSet) CloseWithoutFlush() error {
	var errs []error
	for _, s := range l.streams {
		errs = append(errs, s.CloseWithoutFlush())
	}
	return errors.Join(errs...)
}

// Flushes reports the total flush operations across streams.
func (l *LogSet) Flushes() uint64 {
	var n uint64
	for _, s := range l.streams {
		n += s.Flushes()
	}
	return n
}

// Appends reports the total records appended across streams.
func (l *LogSet) Appends() uint64 {
	var n uint64
	for _, s := range l.streams {
		n += s.Appends()
	}
	return n
}

// SetRegistry wires every stream's metrics into reg. Streams share the
// aggregate wal.* counters and histograms; multi-stream sets additionally
// record per-stream group-commit batch sizes under
// "wal.group_commit_records.stream<i>" so an operator can see whether
// commit load is spread across streams. Must be called before concurrent
// use begins.
func (l *LogSet) SetRegistry(reg *obs.Registry) {
	for i, s := range l.streams {
		s.SetRegistry(reg)
		if len(l.streams) > 1 {
			s.hGroupCommitStream = reg.Histogram(obs.NameWALGroupCommitStream + strconv.Itoa(i))
		}
	}
	reg.Gauge(obs.NameWALStreams).Set(int64(len(l.streams)))
	l.gGSN = reg.Gauge(obs.NameWALGSN)
}

// RegisterDirtyNoter adds a dirty-page recipient on every stream (a page
// dirtied by a record in any stream must reach the checkpointer). Must be
// called before concurrent use begins.
func (l *LogSet) RegisterDirtyNoter(n DirtyNoter) {
	for _, s := range l.streams {
		s.RegisterDirtyNoter(n)
	}
}

// StreamStat is a point-in-time summary of one stream, for tooling
// (cmd/dbstat) and tests.
type StreamStat struct {
	Stream    int
	Appends   uint64
	Flushes   uint64
	BaseLSN   LSN
	StableEnd LSN
	End       LSN
	Poisoned  bool
}

// StreamStats summarizes every stream.
func (l *LogSet) StreamStats() []StreamStat {
	stats := make([]StreamStat, len(l.streams))
	for i, s := range l.streams {
		stats[i] = StreamStat{
			Stream:    i,
			Appends:   s.Appends(),
			Flushes:   s.Flushes(),
			BaseLSN:   s.BaseLSN(),
			StableEnd: s.StableEnd(),
			End:       s.End(),
			Poisoned:  s.Poisoned() != nil,
		}
	}
	return stats
}

// DetectStreamsFS reports how many log stream files exist in dir: 0 when
// no log exists, otherwise the count of consecutive stream files from
// stream 0. Multi-stream sets sync every stream file's directory entry in
// index order at open, before any commit is acknowledged, so the durable
// set is always a gap-free prefix.
func DetectStreamsFS(fsys iofault.FS, dir string) (int, error) {
	n := 0
	for {
		ok, err := streamFileExists(fsys, dir, n)
		if err != nil {
			return 0, fmt.Errorf("wal: probe stream %d: %w", n, err)
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// LogBasesFS reports every existing stream's base LSN, indexed by stream
// (the per-stream compaction horizons recovery and media recovery check
// their starting vectors against). An empty slice means no log exists.
func LogBasesFS(fsys iofault.FS, dir string) ([]LSN, error) {
	n, err := DetectStreamsFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	bases := make([]LSN, n)
	for i := 0; i < n; i++ {
		base, err := logBaseFileFS(fsys, dir, StreamFileName(i))
		if err != nil {
			return nil, fmt.Errorf("wal: stream %d base: %w", i, err)
		}
		bases[i] = base
	}
	return bases, nil
}
