// Package protect implements the paper's corruption protection schemes
// (§3): Baseline (no protection), Data Codeword (detection of direct
// physical corruption by asynchronous audit), Read Prechecking (prevention
// of transaction-carried corruption by verifying the codeword on every
// read), Read Logging and Codeword Read Logging (detection of indirect
// corruption for later delete-transaction recovery), and Hardware
// protection (mprotect around every update, after Sullivan and
// Stonebraker).
//
// A Scheme is a policy object invoked by the core transaction engine
// around the prescribed update interface:
//
//	tok := scheme.BeginUpdate(addr, n)   // latch / unprotect
//	... caller writes [addr, addr+n) in place ...
//	scheme.EndUpdate(tok, old, new)      // codeword maintenance / reprotect
//
// and on every read of persistent data (prechecking, read-codeword
// capture). The latching follows the paper: Read Prechecking holds the
// region's protection latch exclusive for both updates and reads; Data
// Codeword holds it shared for updates (serializing codeword words with
// the separate codeword latch inside region.Table) and exclusive only
// during audit.
package protect

import (
	"fmt"
	"time"

	"repro/internal/latch"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/region"
)

// Kind enumerates the protection schemes of the paper's Table 2.
type Kind int

// Scheme kinds.
const (
	// KindBaseline applies no protection.
	KindBaseline Kind = iota
	// KindDataCW maintains codewords and detects direct corruption by
	// asynchronous audit.
	KindDataCW
	// KindPrecheck verifies the codeword of every region read, preventing
	// transaction-carried corruption.
	KindPrecheck
	// KindReadLog is Data Codeword plus read logging, enabling
	// delete-transaction corruption recovery.
	KindReadLog
	// KindCWReadLog is Read Logging with codewords in the read (and
	// write) log records, enabling the precise, view-consistent variant.
	KindCWReadLog
	// KindHW write-protects pages and exposes them around each update.
	KindHW
	// KindDeferredCW is the Deferred Maintenance variant of Data Codeword
	// (§4.3's passing reference): endUpdate queues codeword deltas and
	// audits drain the queue before verifying, keeping the update hot
	// path off the codeword latch.
	KindDeferredCW
)

func (k Kind) String() string {
	switch k {
	case KindBaseline:
		return "baseline"
	case KindDataCW:
		return "data-cw"
	case KindPrecheck:
		return "precheck"
	case KindReadLog:
		return "read-log"
	case KindCWReadLog:
		return "cw-read-log"
	case KindHW:
		return "hw-protect"
	case KindDeferredCW:
		return "deferred-cw"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Config selects and parameterizes a scheme.
type Config struct {
	Kind Kind
	// RegionSize is the protection region size for codeword schemes. The
	// paper evaluates 64, 512 and 8192 bytes for prechecking. Defaults:
	// 64 for Precheck and CWReadLog, 512 for DataCW and ReadLog.
	RegionSize int
	// LatchStripes bounds the number of protection latches (default 1024).
	LatchStripes int
	// SimProtectCost, when nonzero with KindHW, uses a simulated protector
	// with the given per-call cost instead of real mprotect. Used to model
	// the paper's Table 1 platforms and in tests (a real protected-page
	// write would segfault the process).
	SimProtectCost time.Duration
	// ForceSimProtect selects the simulated protector even with zero cost.
	ForceSimProtect bool
	// HWDeferReprotect (KindHW) defers reprotection of exposed pages to
	// the end of the enclosing operation instead of the end of each
	// update bracket — the grouped-exposure refinement of Sullivan and
	// Stonebraker's model. An operation touching the same page several
	// times (e.g. a page-local insert writing the allocation bits and the
	// record) then pays one protect/unprotect pair instead of one per
	// update.
	HWDeferReprotect bool
	// DisableECC turns off the error-correction tier for codeword schemes:
	// no locator planes are maintained, and Diagnose/Heal report
	// VerdictUnsupported. The detection tier is unaffected.
	DisableECC bool
	// DisableHeal keeps the ECC tier's planes maintained but stops the
	// scheme from repairing in place on its own initiative (today: the
	// precheck read path). Explicit Heal calls still repair.
	DisableHeal bool
	// OnHeal, when non-nil, is invoked after every Heal attempt that
	// mutated state — a repaired word or rebuilt locator planes — with the
	// result and the time the repair took. core.Open wires the database's
	// heal bookkeeping (metrics, checkpoint dirty tracking) in here. Called
	// while the region's protection latch is still held exclusively.
	OnHeal func(region.RepairResult, time.Duration)
	// Obs, when non-nil, receives the scheme's metrics and events
	// (precheck hits/misses, fold counters, protection-latch waits, page
	// exposures). core.Open wires the database's registry in here. Nil
	// leaves the scheme counting into private, unregistered metrics.
	Obs *obs.Registry
	// Pool is the worker pool for whole-arena scans (startup/recovery
	// recompute and audit sweeps). core.Open wires the database's shared
	// pool in here; nil selects the process-wide region.DefaultPool.
	Pool *region.Pool
}

// Defaulted returns the configuration with unset fields defaulted, as New
// will see it. Recovery uses this to learn the effective region size
// before a scheme object exists.
func (c Config) Defaulted() Config { return c.withDefaults() }

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.RegionSize == 0 {
		switch c.Kind {
		case KindPrecheck, KindCWReadLog:
			c.RegionSize = 64
		default:
			c.RegionSize = 512
		}
	}
	if c.LatchStripes == 0 {
		c.LatchStripes = 1024
	}
	if c.Pool == nil {
		c.Pool = region.DefaultPool()
	}
	return c
}

// UpdateToken carries scheme state across a BeginUpdate/EndUpdate bracket.
// It is a plain value — the codeword schemes' guard is three words, and
// only the hardware scheme's page list points anywhere — so a bracket
// costs no allocation and the transaction engine keeps the open bracket's
// token inside the Txn.
type UpdateToken struct {
	addr  mem.Addr
	n     int
	guard latch.MultiGuard
	pages []mem.PageID // pages exposed by the HW scheme
}

// Addr reports the update's start address.
func (t UpdateToken) Addr() mem.Addr { return t.addr }

// Len reports the update's byte count.
func (t UpdateToken) Len() int { return t.n }

// ReadInfo is what a scheme contributes to a read of persistent data.
type ReadInfo struct {
	// LogRead is true if the active scheme wants a read-log record.
	LogRead bool
	// HasCW is true if the record should carry CW.
	HasCW bool
	// CW is the codeword computed from the contents of the region(s)
	// covering the read, XOR-combined when the read spans regions.
	CW region.Codeword
}

// Scheme is a corruption protection policy.
type Scheme interface {
	// Name is the scheme's label in benchmark output.
	Name() string
	// Kind reports the scheme kind.
	Kind() Kind

	// BeginUpdate prepares [addr, addr+n) for an in-place write by the
	// caller (latching, page exposure). The returned token must be passed
	// to exactly one of EndUpdate or AbortUpdate.
	BeginUpdate(addr mem.Addr, n int) (UpdateToken, error)
	// EndUpdate performs codeword maintenance for the completed write
	// (old and new are the before and after images) and releases the
	// token. For the HW scheme it reprotects the exposed pages.
	EndUpdate(tok UpdateToken, old, new []byte) error
	// AbortUpdate releases the token without codeword maintenance; the
	// caller has restored the before-image, so the stored codeword is
	// again correct (the paper's codeword-applied flag path, §3.1).
	AbortUpdate(tok UpdateToken) error

	// PreWriteCW returns the XOR of the pre-update codewords of the
	// regions covered by an update, for schemes that store codewords in
	// write log records (CW Read Logging; the write is "treated as a read
	// followed by a write", §4.3). ok is false for other schemes.
	// old and new are needed because the caller has already performed the
	// in-place write when this is computed.
	PreWriteCW(addr mem.Addr, old, new []byte) (cw region.Codeword, ok bool)

	// Read performs read-side protection for [addr, addr+n): prechecking
	// for KindPrecheck (an error return means corruption was detected and
	// the read must not proceed), and read-log codeword capture for
	// KindCWReadLog.
	Read(addr mem.Addr, n int) (ReadInfo, error)

	// Audit checks every protection region against its codeword under the
	// scheme's audit latching and returns the mismatches. Schemes without
	// codewords return nil.
	Audit() []region.Mismatch
	// AuditRange audits only regions intersecting [addr, addr+n).
	AuditRange(addr mem.Addr, n int) []region.Mismatch

	// Diagnose classifies region r's ECC syndrome under the scheme's audit
	// latching without mutating anything: clean, repairable (with the
	// located word), parity-stale, or unrepairable. Schemes without an ECC
	// tier report VerdictUnsupported.
	Diagnose(r int) region.RepairResult
	// Heal attempts in-place correction of region r under the scheme's
	// audit latching: a located single-word damage is reconstructed from
	// codeword and locator planes, stale planes are rebuilt from intact
	// data. Damage beyond the correction radius returns
	// VerdictUnrepairable and the caller escalates to delete-transaction
	// recovery. Schemes without an ECC tier report VerdictUnsupported.
	Heal(r int) region.RepairResult

	// Recompute re-derives all codewords from the current image (after
	// recovery has produced a known-good image) and, for the HW scheme,
	// re-establishes page protection.
	Recompute() error

	// RegionSize reports the protection region size (0 for schemes
	// without codewords).
	RegionSize() int
	// Protector exposes the page protector (NopProtector except for HW),
	// so the fault injector can honor hardware prevention.
	Protector() mem.Protector
}

// OpEnder is implemented by schemes that defer work to the end of the
// enclosing operation (the hardware scheme's grouped exposure). The core
// transaction engine calls OpEnd when an operation commits or aborts and
// when a transaction completes.
type OpEnder interface {
	OpEnd() error
}

// New constructs the scheme described by cfg over arena.
func New(arena *mem.Arena, cfg Config) (Scheme, error) {
	cfg = cfg.withDefaults()
	var s Scheme
	var err error
	switch cfg.Kind {
	case KindBaseline:
		s = &baseline{arena: arena}
	case KindDataCW, KindReadLog, KindCWReadLog:
		s, err = newCodewordScheme(arena, cfg)
	case KindPrecheck:
		s, err = newPrecheckScheme(arena, cfg)
	case KindDeferredCW:
		s, err = newDeferredScheme(arena, cfg)
	case KindHW:
		s, err = newHWScheme(arena, cfg)
	default:
		return nil, fmt.Errorf("protect: unknown scheme kind %d", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	// The effective region size (0 for schemes without codewords) is
	// published as a gauge so snapshots are self-describing.
	cfg.Obs.Gauge(obs.NameProtectRegionBytes).Set(int64(s.RegionSize()))
	return s, nil
}

// baseline is the unprotected configuration of Table 2's first row.
type baseline struct {
	arena *mem.Arena
}

func (*baseline) Name() string { return "Baseline" }
func (*baseline) Kind() Kind   { return KindBaseline }

func (b *baseline) BeginUpdate(addr mem.Addr, n int) (UpdateToken, error) {
	if err := b.arena.CheckRange(addr, n); err != nil {
		return UpdateToken{}, err
	}
	return UpdateToken{addr: addr, n: n}, nil
}
func (*baseline) EndUpdate(UpdateToken, []byte, []byte) error { return nil } //dbvet:allow cwpair baseline row of Table 2 maintains no codewords
func (*baseline) AbortUpdate(UpdateToken) error               { return nil }
func (*baseline) PreWriteCW(mem.Addr, []byte, []byte) (region.Codeword, bool) {
	return 0, false
}
func (b *baseline) Read(addr mem.Addr, n int) (ReadInfo, error) {
	return ReadInfo{}, b.arena.CheckRange(addr, n)
}
func (*baseline) Audit() []region.Mismatch                   { return nil }
func (*baseline) AuditRange(mem.Addr, int) []region.Mismatch { return nil }
func (*baseline) Diagnose(r int) region.RepairResult {
	return region.RepairResult{Region: r, Verdict: region.VerdictUnsupported}
}
func (*baseline) Heal(r int) region.RepairResult {
	return region.RepairResult{Region: r, Verdict: region.VerdictUnsupported}
}
func (*baseline) Recompute() error         { return nil }
func (*baseline) RegionSize() int          { return 0 }
func (*baseline) Protector() mem.Protector { return mem.NopProtector{} }
