// Package core is the storage manager facade: it reproduces the Dalí
// system model the paper's protection schemes are built into (§2). The
// database is a byte arena directly "mapped" into the application's
// address space; updates are in place and must be bracketed by the
// prescribed interface (Txn.BeginUpdate / Update.End); reads of persistent
// data go through Txn.Read. A protection scheme (package protect) hooks
// both sides: codeword maintenance and prechecking, read logging, or page
// protection. Logging, checkpointing and the active transaction table
// follow the Dalí multi-level recovery design summarized in §2.1.
//
// A DB whose directory already holds a checkpoint must be opened through
// package recovery (restart recovery rebuilds the image from the
// checkpoint and log); core.Open itself only creates fresh databases.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/iofault"
	"repro/internal/lockmgr"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/region"
	"repro/internal/wal"
)

// Config describes a database instance.
type Config struct {
	// Dir is the database directory (system log, checkpoints, anchor).
	Dir string
	// ArenaSize is the database image size in bytes (rounded up to pages).
	ArenaSize int
	// PageSize is the page size for checkpointing and hardware
	// protection; default 4096.
	PageSize int
	// Protect selects the corruption protection scheme; default Baseline.
	Protect protect.Config
	// LockTimeout bounds lock waits (deadlock resolution); default 2s.
	LockTimeout time.Duration
	// DisableLogCompaction keeps the full stable log after checkpoints
	// instead of compacting records below the certified CK_end.
	DisableLogCompaction bool
	// Workers sizes the shared scan worker pool used by startup/recovery
	// codeword recompute, audit sweeps (foreground, background and
	// checkpoint certification) and checkpoint-image codeword
	// computation. 0 defaults to GOMAXPROCS; 1 keeps every scan on the
	// calling goroutine.
	Workers int
	// LogStreams shards the system log into this many independent stream
	// files, each with its own latch, tail and group-commit queue, so
	// commit fsyncs overlap across streams (GOMAXPROCS is a good setting
	// for commit-heavy multicore workloads). 0 and 1 keep the single
	// historical system.log with its exact on-disk format; a database is
	// never reopened with fewer streams than it was written with (the
	// on-disk count is a floor). Maximum 64.
	LogStreams int
	// FS routes the durability I/O (system log, checkpoint images and
	// anchor, archives) through an iofault.FS. nil defaults to the real
	// filesystem; storage-fault campaigns install an iofault.FaultFS here.
	FS iofault.FS
}

// Normalized returns cfg with unset fields defaulted (PageSize 4096,
// LockTimeout 2s, Workers GOMAXPROCS) and validates the result. It
// replaces the old silent WithDefaults mutation: an impossible
// configuration is reported as a descriptive error instead of a
// downstream panic.
func (c Config) Normalized() (Config, error) {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.LockTimeout == 0 {
		c.LockTimeout = 2 * time.Second
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.LogStreams == 0 {
		c.LogStreams = 1
	}
	if c.FS == nil {
		c.FS = iofault.OS
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate checks the configuration for errors that would otherwise
// surface as panics or obscure failures deep in the engine. Unset fields
// are judged by the default they would take. Called by Open and
// NewRecovered via Normalized.
func (c Config) Validate() error {
	if c.ArenaSize <= 0 {
		return fmt.Errorf("core: config: ArenaSize must be positive, got %d", c.ArenaSize)
	}
	pageSize := c.PageSize
	if pageSize == 0 {
		pageSize = 4096
	}
	if pageSize < 0 || pageSize&(pageSize-1) != 0 {
		return fmt.Errorf("core: config: PageSize must be a power of two, got %d", c.PageSize)
	}
	if c.LockTimeout < 0 {
		return fmt.Errorf("core: config: LockTimeout must not be negative, got %v", c.LockTimeout)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: config: Workers must not be negative, got %d", c.Workers)
	}
	if c.LogStreams < 0 || c.LogStreams > 64 {
		return fmt.Errorf("core: config: LogStreams must be in [0, 64], got %d", c.LogStreams)
	}
	pc := c.Protect.Defaulted()
	if pc.Kind.HasCodewords() {
		if pc.RegionSize < region.MinRegionSize || pc.RegionSize&(pc.RegionSize-1) != 0 {
			return fmt.Errorf("core: config: protection region size must be a power of two >= %d, got %d",
				region.MinRegionSize, pc.RegionSize)
		}
		if pageSize < pc.RegionSize {
			return fmt.Errorf("core: config: PageSize %d is smaller than the protection region size %d; "+
				"the arena (a whole number of pages) could not be covered by whole regions", pageSize, pc.RegionSize)
		}
	}
	return nil
}

// ErrCorruption is the sentinel matched by errors.Is for every corruption
// detection, whatever path found it (audit pass, read precheck,
// checkpoint certification). The concrete error is *CorruptionError,
// which carries the mismatched regions.
var ErrCorruption = errors.New("core: corruption detected")

// CorruptionError reports codeword mismatches found by an audit or a
// failed read precheck. Per the paper, the system reacts by noting the
// corrupt regions and "crashing" the database so corruption recovery runs
// as part of restart recovery (§4.3).
type CorruptionError struct {
	Mismatches []region.Mismatch
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("core: corruption detected in %d region(s): %v", len(e.Mismatches), e.Mismatches)
}

// Unwrap makes errors.Is(err, ErrCorruption) hold for every
// *CorruptionError.
func (e *CorruptionError) Unwrap() error { return ErrCorruption }

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("core: database is closed")

// ErrLockTimeout re-exports the lock manager's timeout sentinel so
// callers of Txn.Lock (and of the subsystems layered above it) can write
// errors.Is(err, core.ErrLockTimeout) without importing lockmgr.
var ErrLockTimeout = lockmgr.ErrTimeout

// DB is a database instance.
type DB struct {
	cfg    Config
	arena  *mem.Arena
	scheme protect.Scheme
	log    *wal.LogSet
	att    *wal.ATT
	locks  *lockmgr.Manager
	ckpts  *ckpt.Set
	// pool is the shared scan worker pool (Config.Workers): recompute,
	// audit sweeps and checkpoint codeword computation all draw from it.
	pool *region.Pool

	// barrier is the update barrier: every state-changing bracket
	// (BeginUpdate..End, operation begin/commit, transaction begin/
	// commit/abort) holds it shared; the checkpointer takes it exclusive
	// to capture an update-consistent snapshot.
	barrier sync.RWMutex

	// scratch recycles transaction scratch memory (*txnScratch, slab.go)
	// from finished transactions to new ones.
	scratch sync.Pool

	metaMu   sync.Mutex
	meta     map[string][]byte
	nextPage mem.PageID

	attachMu sync.Mutex
	attach   map[*attachID]any

	auditMu        sync.Mutex
	auditSN        uint64
	lastCleanAudit wal.LSN // the paper's Audit_SN

	// healAudits arms the audit-path heal ladder: mismatches found by an
	// audit pass are first offered to the scheme's ECC tier, and only
	// damage past the correction radius escalates to CorruptionError.
	healAudits bool
	// healGen counts image mutations by the ECC tier. The checkpointer
	// compares it across its snapshot-write-audit window: a heal in that
	// window may postdate the page capture, so the written image is
	// re-taken rather than certifying bytes the audit no longer saw.
	healGen atomic.Uint64

	closed atomic.Bool

	// reg is the database's metrics registry; every subsystem's counters
	// and histograms live in it, and DB.Metrics snapshots it. The handles
	// below are resolved once at build so hot paths never take the
	// registry lock.
	reg            *obs.Registry
	mTxnsBegun     *obs.Counter
	mTxnsCommitted *obs.Counter
	mTxnsAborted   *obs.Counter
	mOps           *obs.Counter
	mUpdates       *obs.Counter
	mReads         *obs.Counter
	mReadRec       *obs.Counter
	mAudits        *obs.Counter
	mAuditMismatch *obs.Counter
	mCorruptions   *obs.Counter
	mCkpts         *obs.Counter
	mHeals         *obs.Counter
	mHealRebuilds  *obs.Counter
	mHealEscalate  *obs.Counter
	hHealNS        *obs.Histogram
	hAuditNS       *obs.Histogram
	hCkptFlushNS   *obs.Histogram
	hCkptSnapNS    *obs.Histogram
	hCkptWriteNS   *obs.Histogram
	hCkptAuditNS   *obs.Histogram
	hCkptCertifyNS *obs.Histogram
	hCkptCompactNS *obs.Histogram
	hCkptTotalNS   *obs.Histogram
}

// Open creates a fresh database in cfg.Dir. It refuses a directory that
// already contains a checkpoint anchor: existing databases must be opened
// through package recovery so restart recovery can run.
func Open(cfg Config) (*DB, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create dir: %w", err)
	}
	if _, err := os.Stat(anchorPath(cfg.Dir)); err == nil {
		return nil, fmt.Errorf("core: %s contains an existing database; open it with recovery.Open", cfg.Dir)
	}
	return build(cfg, nil)
}

func anchorPath(dir string) string { return dir + "/" + ckpt.AnchorFileName }

// build assembles a DB. loaded, when non-nil, carries recovered state
// (used by package recovery via NewRecovered).
func build(cfg Config, loaded *RecoveredState) (*DB, error) {
	reg := obs.NewRegistry()
	arena, err := mem.NewArena(cfg.ArenaSize, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	if loaded != nil {
		if len(loaded.Image) != arena.Size() {
			arena.Close()
			return nil, fmt.Errorf("core: recovered image is %d bytes but arena is %d", len(loaded.Image), arena.Size())
		}
		//dbvet:allow guardedwrite recovered image is installed before protection is armed
		copy(arena.Bytes(), loaded.Image)
	}
	pool := region.NewPool(cfg.Workers)
	pool.Instrument(reg)
	pcfg := cfg.Protect
	pcfg.Obs = reg
	pcfg.Pool = pool
	// The scheme is built before the DB exists, so its OnHeal callback
	// late-binds to the db variable assigned below; no heal can fire
	// before construction completes (nothing calls Heal until then).
	var db *DB
	pcfg.OnHeal = func(res region.RepairResult, d time.Duration) {
		if db != nil {
			db.noteHeal(res, d)
		}
	}
	// Every scheme derives its protection state — codewords and locator
	// planes, or page protection — from the arena as it finds it, so a
	// recovered image is covered from here on without a second pass.
	start := time.Now()
	scheme, err := protect.New(arena, pcfg)
	if err != nil {
		arena.Close()
		return nil, err
	}
	var logEnds []wal.LSN
	if loaded != nil {
		reg.Histogram(obs.NameRecoveryRecomputeNS).Since(start)
		logEnds = loaded.LogEnds
	}
	start = time.Now()
	log, err := wal.OpenLogSetFS(cfg.FS, cfg.Dir, cfg.PageSize, cfg.LogStreams, logEnds)
	if err != nil {
		arena.Close()
		return nil, err
	}
	if loaded != nil {
		reg.Histogram(obs.NameRecoveryLogOpenNS).Since(start)
	}
	log.SetRegistry(reg)
	ckpts, err := ckpt.Open(cfg.FS, cfg.Dir, cfg.PageSize)
	if err != nil {
		log.Close()
		arena.Close()
		return nil, err
	}
	ckpts.SetRegistry(reg)
	ckpts.SetPool(pool)
	log.RegisterDirtyNoter(ckpts)
	locks := lockmgr.New(cfg.LockTimeout)
	locks.SetRegistry(reg)

	db = &DB{
		cfg:    cfg,
		arena:  arena,
		scheme: scheme,
		log:    log,
		att:    wal.NewATT(1),
		locks:  locks,
		ckpts:  ckpts,
		pool:   pool,
		meta:   make(map[string][]byte),
		attach: make(map[*attachID]any),

		reg:            reg,
		mTxnsBegun:     reg.Counter(obs.NameTxnsBegun),
		mTxnsCommitted: reg.Counter(obs.NameTxnsCommitted),
		mTxnsAborted:   reg.Counter(obs.NameTxnsAborted),
		mOps:           reg.Counter(obs.NameOps),
		mUpdates:       reg.Counter(obs.NameUpdates),
		mReads:         reg.Counter(obs.NameReads),
		mReadRec:       reg.Counter(obs.NameReadRecords),
		mAudits:        reg.Counter(obs.NameAuditPasses),
		mAuditMismatch: reg.Counter(obs.NameAuditMismatches),
		mCorruptions:   reg.Counter(obs.NameCorruptions),
		mCkpts:         reg.Counter(obs.NameCheckpoints),
		mHeals:         reg.Counter(obs.NameHeals),
		mHealRebuilds:  reg.Counter(obs.NameHealRebuilds),
		mHealEscalate:  reg.Counter(obs.NameHealEscalations),
		hHealNS:        reg.Histogram(obs.NameHealNS),
		hAuditNS:       reg.Histogram(obs.NameAuditPassNS),
		hCkptFlushNS:   reg.Histogram(obs.NameCkptFlushNS),
		hCkptSnapNS:    reg.Histogram(obs.NameCkptSnapNS),
		hCkptWriteNS:   reg.Histogram(obs.NameCkptWriteNS),
		hCkptAuditNS:   reg.Histogram(obs.NameCkptAuditNS),
		hCkptCertifyNS: reg.Histogram(obs.NameCkptCertifyNS),
		hCkptCompactNS: reg.Histogram(obs.NameCkptCompactNS),
		hCkptTotalNS:   reg.Histogram(obs.NameCkptTotalNS),
	}
	db.healAudits = pcfg.Kind.HasCodewords() && !pcfg.DisableECC && !pcfg.DisableHeal
	if loaded != nil {
		db.att = wal.NewATT(loaded.NextTxnID)
		if loaded.Meta != nil {
			if err := db.decodeMeta(loaded.Meta); err != nil {
				db.closeInternals()
				return nil, err
			}
		}
		db.auditSN = loaded.AuditSN
	}
	return db, nil
}

// RecoveredState is the state handed from restart recovery to NewRecovered.
type RecoveredState struct {
	// Image is the recovered database image (exactly arena-sized).
	Image []byte
	// Meta is the checkpointed metadata blob.
	Meta []byte
	// NextTxnID seeds transaction IDs above everything seen in the log.
	NextTxnID wal.TxnID
	// AuditSN seeds the audit serial-number counter.
	AuditSN uint64
	// LogEnds is the end of each log stream's valid prefix as recovery's
	// scan established it (wal.Cursor.Ends); the log set is opened there
	// instead of reading and walking the files again.
	LogEnds []wal.LSN
}

// NewRecovered assembles a DB around state produced by restart recovery.
// The caller (package recovery) is responsible for having rolled back
// incomplete transactions before calling this; the image is trusted.
// Codewords (and hardware page protection) are derived from it as the
// scheme is built.
func NewRecovered(cfg Config, st *RecoveredState) (*DB, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	return build(cfg, st)
}

// Config returns the database's configuration.
func (db *DB) Config() Config { return db.cfg }

// Scheme exposes the active protection scheme.
func (db *DB) Scheme() protect.Scheme { return db.scheme }

// FS exposes the filesystem the durability paths write through (the real
// filesystem unless a fault-injecting one was configured).
func (db *DB) FS() iofault.FS { return db.cfg.FS }

// Internals bundles the engine's internal subsystems. It is the single
// sanctioned escape hatch below the transactional API, used by the
// storage layers (heap, hashidx), recovery, the shard router, and the
// inspection tools. Writing to the arena outside the prescribed update
// interface is direct physical corruption (the fault injector does so
// deliberately); everything else here is read-mostly plumbing.
type Internals struct {
	Arena       *mem.Arena
	Log         *wal.LogSet
	ATT         *wal.ATT
	Locks       *lockmgr.Manager
	Checkpoints *ckpt.Set
	ScanPool    *region.Pool
}

// Internals returns the internal-subsystem bundle. Prefer the
// transactional API; this exists for layers that genuinely need to see
// inside the engine (storage structures, recovery, tools).
func (db *DB) Internals() Internals {
	return Internals{
		Arena:       db.arena,
		Log:         db.log,
		ATT:         db.att,
		Locks:       db.locks,
		Checkpoints: db.ckpts,
		ScanPool:    db.pool,
	}
}

// PageSize reports the page size.
func (db *DB) PageSize() int { return db.cfg.PageSize }

// Metrics returns a snapshot of every metric in the database's registry:
// counters, gauges and histograms from the WAL, the codeword machinery,
// the protection scheme, the lock manager, the checkpointer and the
// transaction engine. Every value is an atomic load against a stable
// metric set — no torn reads, unlike the old Stats fields — though values
// of different metrics may be skewed by in-flight work; quiesce the
// database if exact cross-metric agreement is needed. The snapshot
// marshals directly to JSON.
func (db *DB) Metrics() obs.Snapshot {
	s := db.reg.Snapshot()
	// The page protector keeps its own call counter (it predates the
	// registry and is also used by the fault injector); mirror it into
	// the snapshot so one snapshot answers the paper's §5.3 question.
	s.Counters[obs.NameProtectCalls] = db.scheme.Protector().Calls()
	return s
}

// Observability exposes the database's metric registry, primarily for
// registering event sinks (obs.Sink) and for tests. Metric values should
// be read through Metrics.
func (db *DB) Observability() *obs.Registry { return db.reg }

// --- metadata and page allocation -----------------------------------------

// SetMeta stores an opaque metadata blob under key. Metadata is persisted
// with each checkpoint; callers that change metadata (e.g. the heap
// catalog on table creation) should checkpoint before relying on it
// surviving a crash.
func (db *DB) SetMeta(key string, value []byte) {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	db.meta[key] = append([]byte(nil), value...)
}

// Meta returns the metadata blob stored under key.
func (db *DB) Meta(key string) ([]byte, bool) {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	v, ok := db.meta[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// AllocPages reserves n contiguous pages of the arena and returns the
// first. Allocation state is part of the checkpointed metadata.
func (db *DB) AllocPages(n int) (mem.PageID, error) {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	if int(db.nextPage)+n > db.arena.NumPages() {
		return 0, fmt.Errorf("core: arena exhausted: need %d pages, %d free",
			n, db.arena.NumPages()-int(db.nextPage))
	}
	first := db.nextPage
	db.nextPage += mem.PageID(n)
	return first, nil
}

// AllocatedPages reports how many pages have been reserved.
func (db *DB) AllocatedPages() int {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	return int(db.nextPage)
}

const allocMetaKey = "\x00core.alloc"

// encodeMeta serializes the metadata map plus allocator state.
func (db *DB) encodeMeta() []byte {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	keys := make([]string, 0, len(db.meta))
	for k := range db.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	b = binary.AppendUvarint(b, uint64(db.nextPage))
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		v := db.meta[k]
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return b
}

func (db *DB) decodeMeta(b []byte) error {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	pos := 0
	next, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return fmt.Errorf("core: corrupt metadata")
	}
	pos += n
	db.nextPage = mem.PageID(next)
	count, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return fmt.Errorf("core: corrupt metadata")
	}
	pos += n
	db.meta = make(map[string][]byte, count)
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(b[pos:])
		if n <= 0 || pos+n+int(klen) > len(b) {
			return fmt.Errorf("core: corrupt metadata key")
		}
		pos += n
		k := string(b[pos : pos+int(klen)])
		pos += int(klen)
		vlen, n := binary.Uvarint(b[pos:])
		if n <= 0 || pos+n+int(vlen) > len(b) {
			return fmt.Errorf("core: corrupt metadata value")
		}
		pos += n
		db.meta[k] = append([]byte(nil), b[pos:pos+int(vlen)]...)
		pos += int(vlen)
	}
	return nil
}

// EncodeMetaForCheckpoint exposes metadata serialization to the recovery
// package (which writes the post-recovery checkpoint).
func (db *DB) EncodeMetaForCheckpoint() []byte { return db.encodeMeta() }

// --- audit -----------------------------------------------------------------

// Audit runs a full-database codeword audit, bracketed by audit log
// records. A clean audit advances Audit_SN (the LSN of its begin record).
// A dirty audit appends an audit-end record carrying the corrupt regions
// — making them visible to corruption recovery — and returns a
// *CorruptionError; the expected reaction is to crash the database and
// run delete-transaction recovery (paper §4.3).
func (db *DB) Audit() error {
	pass, err := db.BeginAuditPass()
	if err != nil {
		return err
	}
	for {
		done, err := pass.Step(0)
		if err != nil {
			pass.Abort()
			return err
		}
		if done {
			break
		}
	}
	return pass.Finish()
}

// noteHeal is the scheme's OnHeal callback: it accounts for an ECC
// repair that mutated state outside the logged update path. A repaired
// word changed arena bytes, so its pages are marked dirty (the next
// checkpoint snapshot must capture the healed contents — the wild write
// it undid was never logged) and the heal generation is bumped so an
// in-flight checkpoint re-takes its image. A plane rebuild touches only
// codeword-table metadata, which checkpoints never persist (codewords
// are re-derived at recovery), so it needs neither.
func (db *DB) noteHeal(res region.RepairResult, d time.Duration) {
	switch res.Verdict {
	case region.VerdictRepaired:
		db.mHeals.Inc()
		db.hHealNS.Observe(uint64(d.Nanoseconds()))
		ps := db.cfg.PageSize
		for p := int(res.Addr) / ps; p <= (int(res.Addr)+7)/ps; p++ {
			db.ckpts.NoteDirty(mem.PageID(p))
		}
		db.healGen.Add(1)
	case region.VerdictParityStale:
		db.mHealRebuilds.Inc()
	}
	if db.reg.HasSinks() {
		db.reg.Emit(obs.HealEvent{
			Region: uint64(res.Region), Verdict: res.Verdict.String(),
			WordAddr: uint64(res.Addr), Duration: d,
		})
	}
}

// HealGeneration reports the number of in-place ECC repairs performed
// over the database's life (tests, tools).
func (db *DB) HealGeneration() uint64 { return db.healGen.Load() }

// LastCleanAuditLSN reports the current Audit_SN: the log position at
// which the last clean audit began.
func (db *DB) LastCleanAuditLSN() wal.LSN {
	db.auditMu.Lock()
	defer db.auditMu.Unlock()
	return db.lastCleanAudit
}

// AuditSerial reports the current audit serial number.
func (db *DB) AuditSerial() uint64 {
	db.auditMu.Lock()
	defer db.auditMu.Unlock()
	return db.auditSN
}

// --- checkpointing ----------------------------------------------------------

// Checkpoint performs one ping-pong checkpoint: under the update barrier
// it flushes the log, snapshots the ATT (with local undo logs), metadata
// and dirty pages; it then writes the inactive image, audits the entire
// database, and — only if the audit is clean — certifies the image by
// toggling the anchor. The certified checkpoint is therefore free of both
// direct and indirect corruption (paper §4.2: if no page has direct
// corruption after the write, no indirect corruption could have occurred
// either). A dirty audit leaves the previous checkpoint current and
// returns *CorruptionError.
func (db *DB) Checkpoint() error {
	if db.closed.Load() {
		return ErrClosed
	}
	total := time.Now()
	// Snapshot, write and certification-audit form a retry loop against
	// the ECC tier: a heal landing inside the window may postdate the
	// snapshot's page capture, so the image on disk could hold the
	// pre-heal (corrupt) bytes while the audit — which saw the healed
	// arena — would certify it. A changed heal generation re-takes the
	// image; the heal marked its pages dirty, so the retried snapshot
	// captures the repaired contents.
	var snap *ckpt.Snapshot
	for attempt := 0; ; attempt++ {
		healGen := db.healGen.Load()
		db.barrier.Lock()
		if db.closed.Load() { // see Audit: Close drains the barrier
			db.barrier.Unlock()
			return ErrClosed
		}
		phase := time.Now()
		if err := db.log.Flush(); err != nil {
			db.barrier.Unlock()
			return err
		}
		db.notePhase("flush", db.hCkptFlushNS, phase)
		phase = time.Now()
		// The per-stream stable ends, captured under the exclusive barrier with
		// every stream just forced, are the epoch barrier: a consistent cut of
		// the log set that the checkpoint image is update-consistent with.
		// CKEnds[0] doubles as the historical scalar CK_end.
		ckEnds := db.log.StableEnds()
		attBytes := wal.EncodeEntries(db.att.Snapshot())
		metaBytes := db.encodeMeta()
		snap = db.ckpts.Begin(db.arena, attBytes, metaBytes, ckEnds)
		db.barrier.Unlock()
		db.notePhase("snapshot", db.hCkptSnapNS, phase)

		phase = time.Now()
		if err := db.ckpts.Write(snap, db.arena.Size()); err != nil {
			return err
		}
		db.notePhase("write", db.hCkptWriteNS, phase)
		phase = time.Now()
		if err := db.Audit(); err != nil {
			return err // CorruptionError: checkpoint not certified
		}
		db.notePhase("audit", db.hCkptAuditNS, phase)
		if db.healGen.Load() == healGen {
			break
		}
		if attempt >= 2 {
			return fmt.Errorf("core: checkpoint: ECC heals kept racing the image capture (%d attempts)", attempt+1)
		}
	}
	phase := time.Now()
	if err := db.ckpts.Certify(snap, db.LastCleanAuditLSN()); err != nil {
		return err
	}
	db.notePhase("certify", db.hCkptCertifyNS, phase)
	db.mCkpts.Inc()
	// Records below the certified CK_end are no longer needed by any
	// recovery path (restart and corruption recovery scan from the current
	// anchor's CK_end); compact them away so the log stays bounded.
	if !db.cfg.DisableLogCompaction {
		phase = time.Now()
		if err := db.log.CompactVector(snap.CKEnds); err != nil {
			return fmt.Errorf("core: log compaction: %w", err)
		}
		db.notePhase("compact", db.hCkptCompactNS, phase)
	}
	db.hCkptTotalNS.Since(total)
	if db.reg.HasSinks() {
		var seq uint64
		if a, ok := db.ckpts.Anchor(); ok {
			seq = a.SeqNo
		}
		db.reg.Emit(obs.CheckpointEvent{SeqNo: seq, Certified: true, Duration: time.Since(total)})
	}
	return nil
}

// notePhase records one checkpoint phase's duration in its histogram and,
// when a sink is registered, emits an obs.CheckpointPhaseEvent. The event
// carries the anchor's current sequence number (the phase may precede the
// certify that increments it).
func (db *DB) notePhase(name string, h *obs.Histogram, start time.Time) {
	h.Since(start)
	if db.reg.HasSinks() {
		var seq uint64
		if a, ok := db.ckpts.Anchor(); ok {
			seq = a.SeqNo
		}
		db.reg.Emit(obs.CheckpointPhaseEvent{SeqNo: seq, Phase: name, Duration: time.Since(start)})
	}
}

// schemeOpEnd forwards operation-end to schemes that defer work to it
// (grouped page exposure in the hardware scheme).
func (db *DB) schemeOpEnd() error {
	if oe, ok := db.scheme.(protect.OpEnder); ok {
		return oe.OpEnd()
	}
	return nil
}

// ExclusiveBarrier runs fn while holding the update barrier exclusively:
// no update bracket, operation boundary or transaction boundary can be in
// flight. Cache recovery uses this to repair regions in place.
func (db *DB) ExclusiveBarrier(fn func() error) error {
	db.barrier.Lock()
	defer db.barrier.Unlock()
	return fn()
}

// --- lifecycle ---------------------------------------------------------------

// Close flushes the log and releases resources. In-flight transactions
// are abandoned (they will be rolled back by restart recovery on the
// next open). Close drains in-flight audits and update brackets before
// unmapping the image, so a background auditor or checkpointer racing
// Close cannot touch freed memory; transactions must not be used
// concurrently with Close.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	db.quiesceForClose()
	err := db.log.Close()
	if cerr := db.arena.Close(); err == nil {
		err = cerr
	}
	return err
}

// quiesceForClose waits out in-flight audits (auditMu) and update/commit
// brackets (barrier). New ones are already refused: closed is set.
func (db *DB) quiesceForClose() {
	db.auditMu.Lock()
	db.auditMu.Unlock() //nolint:staticcheck // drain, not protect
	db.barrier.Lock()
	db.barrier.Unlock() //nolint:staticcheck // drain, not protect
}

// CloseClean checkpoints and then closes, so the next open recovers
// instantly from a fresh checkpoint.
func (db *DB) CloseClean() error {
	if err := db.Checkpoint(); err != nil {
		return err
	}
	return db.Close()
}

// Crash simulates a process crash: the in-memory log tail and database
// image are discarded without flushing. Used by tests and the corruption
// recovery path (the paper's reaction to a failed audit is to "cause the
// database to crash").
func (db *DB) Crash() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	db.quiesceForClose()
	err := db.log.CloseWithoutFlush()
	if cerr := db.arena.Close(); err == nil {
		err = cerr
	}
	return err
}

func (db *DB) closeInternals() {
	db.log.Close()
	db.arena.Close()
}
