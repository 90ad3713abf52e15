// Package shard scales the single-arena storage manager to K independent
// arena+WAL+checkpoint+lock-manager units behind one Router. Each shard
// is a complete core.DB in its own directory with its own obs registry,
// so audits, checkpoints and restart recovery stay bounded per shard and
// run in parallel across shards — the recovery-independence argument of
// Wu et al. (PAPERS.md) applied to the paper's codeword-protected arenas.
//
// Keys hash-route to shards. A transaction that touches one shard commits
// straight through the existing core.Txn machinery — no extra records, no
// coordination. A transaction that touches several commits via two-phase
// commit built on the engine's own primitives: a prepare record in each
// participant's WAL (core.Txn.Prepare), a decision record in the
// coordinator shard's WAL (core.DB.AppendDecision), presumed abort for
// everything undecided. Recovery resolves in-doubt transactions per shard
// in parallel (recovery.Report.InDoubt) against the coordinator's
// decisions, which survive log compaction through a decision table in the
// coordinator shard's checkpointed metadata.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/hashidx"
	"repro/internal/heap"
	"repro/internal/iofault"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// Config describes a sharded database.
type Config struct {
	// Dir is the root directory; shard i lives in Dir/shard-<i>.
	Dir string
	// Shards is the shard count K (default 1). Fixed for the life of the
	// database: the routing hash is not consistent across K changes.
	Shards int
	// ArenaSize, PageSize, Protect, LockTimeout, Workers and FS configure
	// every shard's core.DB identically (ArenaSize is per shard).
	ArenaSize   int
	PageSize    int
	Protect     protect.Config
	LockTimeout time.Duration
	Workers     int
	FS          iofault.FS
	// LogStreams is the per-shard log stream count (core.Config.LogStreams):
	// each shard's WAL is sharded into this many independent streams. 2PC
	// prepare and decision records are stamped with the shard's GSN like
	// every other record, so in-doubt resolution merges correctly.
	LogStreams int
	// ValueSize is the maximum value length of the KV store (default 120
	// bytes; records are fixed-size, values are length-prefixed inside).
	ValueSize int
	// Capacity is the KV record capacity per shard (default 4096).
	Capacity int
	// DisableLogCompaction is passed through to every shard.
	DisableLogCompaction bool
}

func (c Config) normalized() (Config, error) {
	if c.Dir == "" {
		return Config{}, errors.New("shard: config: Dir required")
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 || c.Shards > 1<<15 {
		return Config{}, fmt.Errorf("shard: config: Shards must be in [1, %d], got %d", 1<<15, c.Shards)
	}
	if c.ValueSize == 0 {
		c.ValueSize = 120
	}
	if c.ValueSize < 1 || c.ValueSize > 1<<16-2 {
		return Config{}, fmt.Errorf("shard: config: ValueSize must be in [1, %d], got %d", 1<<16-2, c.ValueSize)
	}
	if c.Capacity == 0 {
		c.Capacity = 4096
	}
	if c.Capacity < 1 {
		return Config{}, fmt.Errorf("shard: config: Capacity must be positive, got %d", c.Capacity)
	}
	return c, nil
}

// shardDir names shard i's directory under root.
func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

const (
	kvTableName = "kv"
	kvIndexName = "kv_by_key"
)

// unit is one shard: a full engine plus its KV access structures.
type unit struct {
	id  int
	db  *core.DB
	tab *heap.Table
	idx *hashidx.Index
}

// Router owns the K shard engines and routes keys to them.
type Router struct {
	cfg   Config
	units []*unit

	// 2PC decision tables, one per shard (a shard is a coordinator for
	// the cross-shard transactions it originates). Guarded by decMu;
	// mirrored into the owning shard's checkpointed metadata so decisions
	// survive log compaction until every participant acknowledged.
	decMu     sync.Mutex
	decisions []map[uint64]bool

	closed bool
	mu     sync.Mutex // guards closed

	reg       *obs.Registry
	mTxns     *obs.Counter
	mFastpath *obs.Counter
	mCross    *obs.Counter
	mCrossAb  *obs.Counter
	mInDoubtC *obs.Counter
	mInDoubtA *obs.Counter
	h2PCNS    *obs.Histogram
	hCrossFan *obs.Histogram
}

// OpenReport summarizes what opening a sharded database did.
type OpenReport struct {
	// Fresh reports that every shard was newly created.
	Fresh bool
	// PerShard holds each shard's recovery report (nil entries for shards
	// created fresh — only possible on a fresh database).
	PerShard []*recovery.Report
	// InDoubtCommitted / InDoubtAborted count cross-shard transactions
	// resolved during open from the coordinators' decisions (presumed
	// abort for the undecided).
	InDoubtCommitted int
	InDoubtAborted   int
}

// Open opens the sharded database rooted at cfg.Dir, creating it fresh if
// it has no durable state and recovering every shard (in parallel)
// otherwise, then resolving in-doubt cross-shard transactions against the
// coordinators' decisions.
func Open(cfg Config) (*Router, *OpenReport, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	r := &Router{
		cfg:       cfg,
		units:     make([]*unit, cfg.Shards),
		decisions: make([]map[uint64]bool, cfg.Shards),
		reg:       obs.NewRegistry(),
	}
	for i := range r.decisions {
		r.decisions[i] = make(map[uint64]bool)
	}
	r.mTxns = r.reg.Counter(obs.NameShardTxns)
	r.mFastpath = r.reg.Counter(obs.NameShardFastpathCommits)
	r.mCross = r.reg.Counter(obs.NameShardCrossCommits)
	r.mCrossAb = r.reg.Counter(obs.NameShardCrossAborts)
	r.mInDoubtC = r.reg.Counter(obs.NameShardInDoubtCommits)
	r.mInDoubtA = r.reg.Counter(obs.NameShardInDoubtAborts)
	r.h2PCNS = r.reg.Histogram(obs.NameShard2PCCommitNS)
	r.hCrossFan = r.reg.Histogram(obs.NameShardCrossTouched)

	report := &OpenReport{PerShard: make([]*recovery.Report, cfg.Shards)}

	// Open every shard in parallel: fresh shards are created, existing
	// ones run full restart recovery independently.
	var wg sync.WaitGroup
	errs := make([]error, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u, rep, err := openUnit(cfg, i)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			r.units[i] = u
			report.PerShard[i] = rep
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		r.closeUnits()
		return nil, nil, err
	}

	fresh := true
	for _, rep := range report.PerShard {
		if rep == nil || !rep.FreshDatabase {
			fresh = false
		}
	}
	report.Fresh = fresh

	// Load each coordinator's decision table (log-scanned decisions plus
	// the checkpointed table), then resolve every in-doubt participant.
	if err := r.resolveInDoubt(report); err != nil {
		r.closeUnits()
		return nil, nil, err
	}
	return r, report, nil
}

// openUnit opens one shard fresh or through recovery.
func openUnit(cfg Config, i int) (*unit, *recovery.Report, error) {
	dir := shardDir(cfg.Dir, i)
	ccfg := core.Config{
		Dir:                  dir,
		ArenaSize:            cfg.ArenaSize,
		PageSize:             cfg.PageSize,
		Protect:              cfg.Protect,
		LockTimeout:          cfg.LockTimeout,
		Workers:              cfg.Workers,
		FS:                   cfg.FS,
		LogStreams:           cfg.LogStreams,
		DisableLogCompaction: cfg.DisableLogCompaction,
	}
	existing := false
	if _, err := os.Stat(filepath.Join(dir, ckpt.AnchorFileName)); err == nil {
		existing = true
	} else if _, err := os.Stat(filepath.Join(dir, wal.LogFileName)); err == nil {
		existing = true
	}
	if existing {
		db, rep, err := recovery.Open(ccfg, recovery.Options{})
		if err != nil {
			return nil, nil, err
		}
		u, err := attachKV(i, db)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		return u, rep, nil
	}
	db, err := core.Open(ccfg)
	if err != nil {
		return nil, nil, err
	}
	u, err := createKV(cfg, i, db)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	rep := &recovery.Report{FreshDatabase: true}
	return u, rep, nil
}

// createKV creates the shard's KV table and index on a fresh engine and
// checkpoints so the catalog survives a crash.
func createKV(cfg Config, id int, db *core.DB) (*unit, error) {
	hcat, err := heap.Open(db)
	if err != nil {
		return nil, err
	}
	recSize := 8 + 2 + cfg.ValueSize
	tab, err := hcat.CreateTable(kvTableName, recSize, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	icat, err := hashidx.Open(db)
	if err != nil {
		return nil, err
	}
	// Size the index ahead of the table so probes terminate well before
	// the table fills (open addressing needs slack).
	idx, err := icat.CreateIndex(kvIndexName, 2*cfg.Capacity)
	if err != nil {
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	return &unit{id: id, db: db, tab: tab, idx: idx}, nil
}

// attachKV reopens the KV structures from a recovered engine's catalogs.
func attachKV(id int, db *core.DB) (*unit, error) {
	hcat, err := heap.Open(db)
	if err != nil {
		return nil, err
	}
	tab, err := hcat.Table(kvTableName)
	if err != nil {
		return nil, err
	}
	icat, err := hashidx.Open(db)
	if err != nil {
		return nil, err
	}
	idx, err := icat.IndexNamed(kvIndexName)
	if err != nil {
		return nil, err
	}
	return &unit{id: id, db: db, tab: tab, idx: idx}, nil
}

// Shards reports the shard count.
func (r *Router) Shards() int { return r.cfg.Shards }

// ShardFor reports which shard key routes to.
func (r *Router) ShardFor(key uint64) int {
	return int(splitmix64(key) % uint64(r.cfg.Shards))
}

// DB exposes shard i's engine (tools, tests, per-shard maintenance).
func (r *Router) DB(i int) *core.DB { return r.units[i].db }

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash so
// adjacent keys spread across shards.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Checkpoint checkpoints every shard in parallel.
func (r *Router) Checkpoint() error {
	return r.parallel(func(u *unit) error { return u.db.Checkpoint() })
}

// Audit audits every shard in parallel; corruption on any shard is
// reported with its shard ID.
func (r *Router) Audit() error {
	return r.parallel(func(u *unit) error { return u.db.Audit() })
}

// parallel runs fn on every shard concurrently and joins the errors.
func (r *Router) parallel(fn func(*unit) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.units))
	for i, u := range r.units {
		wg.Add(1)
		go func(i int, u *unit) {
			defer wg.Done()
			if err := fn(u); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", u.id, err)
			}
		}(i, u)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close closes every shard (flushing logs; no final checkpoint).
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	return r.closeUnits()
}

// CloseClean checkpoints and audits every shard, then closes. The server
// uses it for graceful drain: a clean close leaves every shard with a
// certified image and an empty recovery.
func (r *Router) CloseClean() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	err := r.parallel(func(u *unit) error { return u.db.CloseClean() })
	return err
}

func (r *Router) closeUnits() error {
	var errs []error
	for _, u := range r.units {
		if u == nil {
			continue
		}
		if err := u.db.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", u.id, err))
		}
	}
	return errors.Join(errs...)
}

// Metrics returns the router's own counters plus every shard's engine
// snapshot, keyed "router" and "shard-<i>".
func (r *Router) Metrics() map[string]obs.Snapshot {
	out := make(map[string]obs.Snapshot, len(r.units)+1)
	out["router"] = r.reg.Snapshot()
	for _, u := range r.units {
		out[fmt.Sprintf("shard-%03d", u.id)] = u.db.Metrics()
	}
	return out
}

// Observability exposes the router's registry (event sinks, tests).
func (r *Router) Observability() *obs.Registry { return r.reg }

// encodeKV lays out a fixed-size KV record: key, value length, value.
func encodeKV(recSize int, key uint64, val []byte) []byte {
	rec := make([]byte, recSize)
	binary.LittleEndian.PutUint64(rec, key)
	binary.LittleEndian.PutUint16(rec[8:], uint16(len(val)))
	copy(rec[10:], val)
	return rec
}

// decodeKV extracts the value from a KV record.
func decodeKV(rec []byte) []byte {
	n := int(binary.LittleEndian.Uint16(rec[8:]))
	if n > len(rec)-10 {
		n = len(rec) - 10
	}
	return append([]byte(nil), rec[10:10+n]...)
}
