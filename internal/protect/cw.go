package protect

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/latch"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/region"
)

// ErrPrecheckFailed reports that a read precheck found the region
// codeword inconsistent with the region contents: direct physical
// corruption was detected before the transaction could carry it.
var ErrPrecheckFailed = errors.New("protect: read precheck failed (corruption detected)")

// latchStripes bounds the number of protection latches.
const latchStripes = 1024

// cwScheme is the codeword scheme: one codeword table over the arena,
// maintained through the update bracket (§3) and verified region by
// region under the exclusive protection latch (§3.2: "during audit, the
// protection latch must be taken in exclusive mode to obtain a consistent
// image of the protection region and associated codeword"). Its policy
// row decides the rest — see the policy type for the matrix:
//
//   - Update latch. Shared (the codeword latch inside region.Table
//     serializes the codeword words themselves), except under Read
//     Prechecking, where a reader must observe a (contents, codeword)
//     pair with no update in flight and both sides take it exclusive.
//     Either way it is held across the caller's in-place write, so an
//     audit can never observe a half-applied update whose codeword has
//     not been maintained.
//   - Read action. Free, verify-and-heal, log, or log with the codeword
//     of the covering regions.
//   - Fold. EndUpdate folds old⊕new into the table, or — Deferred
//     Maintenance, the variant §4.3 references — queues the per-region
//     deltas still under the protection latch and leaves the table alone,
//     keeping the update path off the codeword latch. The stored
//     codewords then lag the data, so everything that verifies a region
//     takes its latch exclusive and drains first: every completed update
//     of that region has its delta applied or in the queue being drained,
//     and no new one can appear until the latch is released. Drains by
//     workers on other regions only apply deltas sooner; XOR commutes.
type cwScheme struct {
	kind  Kind
	pol   policy
	arena *mem.Arena
	tab   *region.Table
	prot  *latch.Striped //dbvet:latch protection — the paper's protection latches

	// The deferred-fold queue (pol.deferFold). drain is drainQueue for a
	// deferring scheme and nil otherwise, the form AuditRangeLatched takes.
	mu      sync.Mutex
	pending []region.Delta
	// drainThreshold bounds queue growth; EndUpdate drains inline past it.
	drainThreshold int
	drain          func()

	healReads bool // heal on the verifying read path (ECC on, Config.DisableHeal unset)
	onHeal    func(region.RepairResult, time.Duration)

	// Each metric is registered only under the policy that can move it.
	reg         *obs.Registry
	mRegions    *obs.Counter // regions verified before reads (precheck hits)
	mFailures   *obs.Counter // prechecks that caught corruption
	mHeals      *obs.Counter // precheck failures repaired in place by ECC
	mCWCaptures *obs.Counter // codewords captured for read-log records
	mDrains     *obs.Counter
	gPending    *obs.Gauge
}

func newCWScheme(arena *mem.Arena, cfg Config, pol policy) (*cwScheme, error) {
	tab, err := region.NewTable(arena.Size(), cfg.RegionSize)
	if err != nil {
		return nil, err
	}
	s := &cwScheme{
		kind:      cfg.Kind,
		pol:       pol,
		arena:     arena,
		tab:       tab,
		prot:      latch.NewStriped(min(latchStripes, tab.NumRegions())),
		healReads: !cfg.DisableECC && !cfg.DisableHeal,
		onHeal:    cfg.OnHeal,
		reg:       cfg.Obs,
	}
	switch pol.read {
	case readVerify:
		s.mRegions = cfg.Obs.Counter(obs.NamePrecheckRegions)
		s.mFailures = cfg.Obs.Counter(obs.NamePrecheckFailures)
		s.mHeals = cfg.Obs.Counter(obs.NamePrecheckHeals)
	case readLogCW:
		s.mCWCaptures = cfg.Obs.Counter(obs.NameCWCaptures)
	}
	if pol.deferFold {
		s.drainThreshold = 4096
		s.drain = s.drainQueue
		s.mDrains = cfg.Obs.Counter(obs.NameDeferredDrains)
		s.gPending = cfg.Obs.Gauge(obs.NameRegionDeferredQueue)
	}
	tab.SetRegistry(cfg.Obs)
	tab.SetPool(cfg.Pool)
	if !cfg.DisableECC {
		tab.EnableECC()
	}
	s.prot.Instrument(cfg.Obs, "protect",
		cfg.Obs.Histogram(obs.NameProtLatchWaitNS), cfg.Obs.Counter(obs.NameProtLatchContends))
	tab.RecomputeAll(arena)
	return s, nil
}

func (s *cwScheme) Name() string             { return fmt.Sprintf(s.pol.label, s.tab.RegionSize()) }
func (s *cwScheme) Kind() Kind               { return s.kind }
func (s *cwScheme) RegionSize() int          { return s.tab.RegionSize() }
func (s *cwScheme) Protector() mem.Protector { return mem.NopProtector{} }

// Table exposes the codeword table (space accounting, white-box tests).
func (s *cwScheme) Table() *region.Table { return s.tab }

// BeginUpdate takes the protection latches covering the update, in the
// policy's mode, for the whole update bracket.
func (s *cwScheme) BeginUpdate(addr mem.Addr, n int) (UpdateToken, error) {
	if err := s.arena.CheckRange(addr, n); err != nil {
		return UpdateToken{}, err
	}
	first, last := s.tab.RegionRange(addr, n)
	g := s.prot.AcquireRange(uint64(first), uint64(last), s.pol.exclusive)
	return UpdateToken{addr: addr, n: n, guard: g}, nil
}

// EndUpdate folds old⊕new into the affected codewords, or queues the
// deltas, before the protection latches are released (§3.1: "the undo
// image stored in the log and the current value of the updated region are
// used to update the codeword before the protection latch is released").
func (s *cwScheme) EndUpdate(tok UpdateToken, old, new []byte) error {
	if !s.pol.deferFold {
		defer tok.guard.Release()
		return s.tab.ApplyUpdate(tok.addr, old, new)
	}
	deltas, err := s.tab.UpdateDeltas(nil, tok.addr, old, new)
	if err != nil {
		tok.guard.Release()
		return err
	}
	s.mu.Lock()
	s.pending = append(s.pending, deltas...)
	needDrain := len(s.pending) >= s.drainThreshold
	s.gPending.Set(int64(len(s.pending)))
	s.mu.Unlock()
	tok.guard.Release()
	if needDrain {
		s.drainQueue()
	}
	return nil
}

// AbortUpdate releases the latches without codeword maintenance: the
// caller restored the before-image, and the codeword still describes it.
func (s *cwScheme) AbortUpdate(tok UpdateToken) error {
	tok.guard.Release()
	return nil
}

// drainQueue folds every queued delta into the codeword table. The queue
// mutex is held across the application so a concurrent drainer cannot
// leave deltas half-applied while an auditor (whose own drain would then
// see an empty queue) verifies the region.
func (s *cwScheme) drainQueue() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.pending {
		s.tab.XorDelta(d)
	}
	s.pending = s.pending[:0]
	s.mDrains.Inc()
	s.gPending.Set(0)
}

// contentsCW is the XOR of the codewords computed from the contents of
// regions first..last.
func (s *cwScheme) contentsCW(first, last int) region.Codeword {
	var cw region.Codeword
	for r := first; r <= last; r++ {
		cw ^= region.Compute(s.arena.Slice(s.tab.RegionStart(r), s.tab.RegionSize()))
	}
	return cw
}

// PreWriteCW implements the "write treated as read followed by write"
// rule of CW Read Logging. The caller has already written new over old in
// place, so the pre-update codeword of the covered regions is their
// contents codeword with new⊕old folded back out (region-independent,
// because XOR is associative). The caller still holds the update's
// protection latches, making the computation stable.
func (s *cwScheme) PreWriteCW(addr mem.Addr, old, new []byte) (region.Codeword, bool) {
	if s.pol.read != readLogCW {
		return 0, false
	}
	first, last := s.tab.RegionRange(addr, len(new))
	return region.FoldDelta(s.contentsCW(first, last), old, new, int(addr&7)), true
}

// Read performs the policy's read action for [addr, addr+n).
func (s *cwScheme) Read(addr mem.Addr, n int) (ReadInfo, error) {
	if err := s.arena.CheckRange(addr, n); err != nil {
		return ReadInfo{}, err
	}
	switch s.pol.read {
	case readVerify:
		return ReadInfo{}, s.precheck(addr, n)
	case readLog:
		return ReadInfo{LogRead: true}, nil
	case readLogCW:
		// The shared latch keeps an audit out, not other updaters: reads of
		// the same object are serialized against writes by transaction locks
		// above this layer, and unrelated data in the region may be
		// mid-update. The contents are folded as they are — the logged
		// codeword describes exactly the bytes this transaction could have
		// observed.
		first, last := s.tab.RegionRange(addr, n)
		g := s.prot.AcquireRange(uint64(first), uint64(last), false)
		cw := s.contentsCW(first, last)
		g.Release()
		s.mCWCaptures.Inc()
		return ReadInfo{LogRead: true, HasCW: true, CW: cw}, nil
	}
	return ReadInfo{}, nil
}

// precheck takes the protection latch exclusive and compares every region
// containing the data to be read with its stored codeword. A mismatch
// prevents the read: transaction-carried corruption is stopped at its
// source.
func (s *cwScheme) precheck(addr mem.Addr, n int) error {
	first, last := s.tab.RegionRange(addr, n)
	g := s.prot.AcquireRange(uint64(first), uint64(last), true)
	defer g.Release()
	for r := first; r <= last; r++ {
		if !s.tab.VerifyRegion(s.arena, r) {
			// ECC tier: the exclusive latch held for the precheck is exactly
			// the latching Repair needs, so a locatable single-word damage
			// is reconstructed in place and the read proceeds — the
			// transaction never observes the corruption.
			if s.healReads && s.repair(r).Verdict == region.VerdictRepaired {
				s.mHeals.Inc()
				s.mRegions.Inc()
				continue
			}
			s.mFailures.Inc()
			if s.reg.HasSinks() {
				s.reg.Emit(obs.PrecheckFailEvent{Region: uint64(r), Addr: uint64(addr), Len: n})
				s.reg.Emit(obs.CorruptionEvent{Source: "precheck", Mismatches: 1})
			}
			return fmt.Errorf("%w: region %d [%d,+%d)",
				ErrPrecheckFailed, r, s.tab.RegionStart(r), s.tab.RegionSize())
		}
		s.mRegions.Inc()
	}
	return nil
}

// Audit checks every region under the audit discipline.
func (s *cwScheme) Audit() []region.Mismatch {
	return s.AuditRange(0, s.arena.Size())
}

// AuditRange audits the regions intersecting [addr, addr+n), each under
// its protection latch held exclusive, after the deferred queue (if any)
// has been drained under that latch.
func (s *cwScheme) AuditRange(addr mem.Addr, n int) []region.Mismatch {
	return s.tab.AuditRangeLatched(s.arena, addr, n, s.prot, s.drain)
}

// Diagnose classifies region r's ECC syndrome under the audit discipline
// (latch exclusive, drain) without mutating anything.
func (s *cwScheme) Diagnose(r int) region.RepairResult {
	l := s.prot.For(uint64(r))
	l.Lock()
	defer l.Unlock()
	if s.drain != nil {
		s.drain()
	}
	return s.tab.Diagnose(s.arena, r)
}

// Heal attempts in-place correction of region r under the audit
// discipline (latch exclusive, drain, repair).
func (s *cwScheme) Heal(r int) region.RepairResult {
	l := s.prot.For(uint64(r))
	l.Lock()
	defer l.Unlock()
	if s.drain != nil {
		s.drain()
	}
	return s.repair(r)
}

// repair runs the table's Repair on region r, whose protection latch the
// caller holds exclusive, and reports mutating outcomes (a repaired word,
// rebuilt planes) with the time they took through OnHeal, so the database
// can account for the image change (metrics, checkpoint dirty tracking).
func (s *cwScheme) repair(r int) region.RepairResult {
	start := time.Now()
	res := s.tab.Repair(s.arena, r)
	if s.onHeal != nil && (res.Verdict == region.VerdictRepaired || res.Verdict == region.VerdictParityStale) {
		s.onHeal(res, time.Since(start))
	}
	return res
}

// Recompute re-derives all codewords from the image; queued deltas
// describe updates the image already holds, so they are dropped.
func (s *cwScheme) Recompute() error {
	s.mu.Lock()
	s.pending = nil
	s.mu.Unlock()
	s.tab.RecomputeAll(s.arena)
	return nil
}
