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

// readAction is the read-side column of the scheme matrix.
type readAction uint8

const (
	// readFree: reads cost nothing (Data CW, Deferred CW, §3.2).
	readFree readAction = iota
	// readVerify: every covering region is verified (and, with the ECC
	// tier on, healed) under the exclusive protection latch before the
	// read proceeds (Read Prechecking, §3.1).
	readVerify
	// readLog: the read is reported for logging, identity only (§4.2).
	readLog
	// readLogCW: the read is logged with the codeword of the covering
	// regions' contents, computed under the shared protection latch; a
	// write is "treated as a read followed by a write" and logs the
	// pre-update codeword the same way (§4.3).
	readLogCW
)

// policy is one row of the paper's scheme matrix (Table 2), indexed by
// Kind: every fact that tells one kind from another lives here and
// nowhere else. The codeword kinds share one mechanism (cwScheme, §3's
// codeword maintenance) and differ only in the last four columns;
// Baseline and HW are mechanisms of their own and use the first three.
type policy struct {
	name  string // -scheme spelling, accepted by ParseKind
	str   string // Kind.String
	label string // Scheme.Name, the Table 2 row label; %d is the region size
	// regionSize is the default protection region size; 0 means the kind
	// keeps no codewords.
	regionSize int
	// exclusive: the update bracket holds the protection latch exclusive
	// rather than shared, so a verifying reader never sees a region with an
	// update in flight.
	exclusive bool
	read      readAction
	// deferFold: EndUpdate queues the codeword deltas instead of folding
	// them; the queue is drained before anything compares a region with
	// its stored codeword.
	deferFold bool
}

var policies = [...]policy{
	KindBaseline:   {name: "baseline", str: "baseline", label: "Baseline"},
	KindDataCW:     {name: "datacw", str: "data-cw", label: "Data CW (%dB)", regionSize: 512},
	KindPrecheck:   {name: "precheck", str: "precheck", label: "Data CW w/Precheck, %d byte", regionSize: 64, exclusive: true, read: readVerify},
	KindReadLog:    {name: "readlog", str: "read-log", label: "Data CW w/ReadLog (%dB)", regionSize: 512, read: readLog},
	KindCWReadLog:  {name: "cwreadlog", str: "cw-read-log", label: "Data CW w/CW ReadLog (%dB)", regionSize: 64, read: readLogCW},
	KindHW:         {name: "hw", str: "hw-protect", label: "Memory Protection"},
	KindDeferredCW: {name: "deferredcw", str: "deferred-cw", label: "Data CW deferred (%dB)", regionSize: 512, deferFold: true},
}

// policy returns k's row; ok is false for a value that is not a Kind.
func (k Kind) policy() (p policy, ok bool) {
	if k < 0 || int(k) >= len(policies) {
		return policy{}, false
	}
	return policies[k], true
}

func (k Kind) String() string {
	if p, ok := k.policy(); ok {
		return p.str
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// HasCodewords reports whether the kind maintains a codeword table (and
// therefore has a meaningful region size, audits, and an ECC tier).
func (k Kind) HasCodewords() bool {
	p, _ := k.policy()
	return p.regionSize != 0
}

// VerifiesReads reports whether every read verifies its regions before it
// proceeds (Read Prechecking). It is the only kind under which no
// transaction can have read unverified bytes, so the only one whose audits
// may heal damage in place: under the others a reader may already have
// carried the damage into its own writes (§4), which only
// delete-transaction recovery can trace.
func (k Kind) VerifiesReads() bool {
	p, _ := k.policy()
	return p.read == readVerify
}

// LogsCodewords reports whether the kind stores codewords in its read and
// write log records, which lets corruption recovery run its
// view-consistent variant without a failed audit to start from (§4.3).
func (k Kind) LogsCodewords() bool {
	p, _ := k.policy()
	return p.read == readLogCW
}

// ParseKind maps a -scheme spelling (baseline, datacw, precheck, readlog,
// cwreadlog, deferredcw, hw) to its Kind.
func ParseKind(name string) (Kind, error) {
	for k, p := range policies {
		if p.name == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("protect: unknown scheme %q", name)
}

// Config selects and parameterizes a scheme.
type Config struct {
	Kind Kind
	// RegionSize is the protection region size for codeword schemes. The
	// paper evaluates 64, 512 and 8192 bytes for prechecking. Defaults:
	// 64 for Precheck and CWReadLog, 512 for the other codeword kinds.
	RegionSize int
	// ForceSimProtect, with KindHW, uses the simulated protector instead
	// of real mprotect: tests and fault injection, where a real
	// protected-page write would segfault the process.
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
	// no S1 syndrome word is maintained, and Diagnose/Heal report
	// VerdictUnsupported. The detection tier is unaffected.
	DisableECC bool
	// DisableHeal keeps the ECC tier's S1 maintained but stops the scheme
	// from repairing in place on its own initiative (the precheck read
	// path, and core's Precheck audits). Explicit Heal calls still repair.
	DisableHeal bool
	// OnHeal, when non-nil, is invoked after every Heal attempt that
	// repaired a word, with the result and the time the repair took.
	// core.Open wires the database's heal bookkeeping (metrics, checkpoint
	// dirty tracking) in here. Called while the region's protection latch
	// is still held exclusively.
	OnHeal func(region.RepairResult, time.Duration)
	// Obs, when non-nil, receives the scheme's metrics
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
		p, _ := c.Kind.policy()
		c.RegionSize = p.regionSize
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

	// Diagnose classifies region r's ECC syndromes under the scheme's
	// audit latching without mutating anything: clean, repairable (with
	// the located word), or unrepairable. Schemes without an ECC tier
	// report VerdictUnsupported.
	Diagnose(r int) region.RepairResult
	// Heal attempts in-place correction of region r under the scheme's
	// audit latching: a located single-word damage is reconstructed from
	// the S0 and S1 syndromes. Damage beyond the correction radius returns
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
	pol, ok := cfg.Kind.policy()
	if !ok {
		return nil, fmt.Errorf("protect: unknown scheme kind %d", cfg.Kind)
	}
	var s Scheme
	var err error
	switch {
	case cfg.Kind.HasCodewords():
		s, err = newCWScheme(arena, cfg, pol)
	case cfg.Kind == KindHW:
		s, err = newHWScheme(arena, cfg)
	default:
		s = &baseline{arena: arena}
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

func (*baseline) Name() string { return policies[KindBaseline].label }
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
