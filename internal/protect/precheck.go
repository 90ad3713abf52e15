package protect

import (
	"errors"
	"fmt"
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

// precheckScheme implements Read Prechecking (§3.1): the consistency
// between the data in a protection region and its codeword is checked
// during each read. Both readers and updaters take the protection latch
// in exclusive mode, because the reader must observe a (contents,
// codeword) pair with no update in flight.
type precheckScheme struct {
	arena *mem.Arena
	tab   *region.Table
	prot  *latch.Striped //dbvet:latch protection

	reg       *obs.Registry
	mRegions  *obs.Counter // regions verified before reads (precheck hits)
	mFailures *obs.Counter // prechecks that caught corruption
	mHeals    *obs.Counter // precheck failures repaired in place by ECC

	healReads bool // heal on the read path (ECC on, Config.DisableHeal unset)
	onHeal    func(region.RepairResult, time.Duration)
}

func newPrecheckScheme(arena *mem.Arena, cfg Config) (*precheckScheme, error) {
	tab, err := region.NewTable(arena.Size(), cfg.RegionSize)
	if err != nil {
		return nil, err
	}
	s := &precheckScheme{
		arena:     arena,
		tab:       tab,
		prot:      latch.NewStriped(min(cfg.LatchStripes, tab.NumRegions())),
		reg:       cfg.Obs,
		mRegions:  cfg.Obs.Counter(obs.NamePrecheckRegions),
		mFailures: cfg.Obs.Counter(obs.NamePrecheckFailures),
		mHeals:    cfg.Obs.Counter(obs.NamePrecheckHeals),
		healReads: !cfg.DisableECC && !cfg.DisableHeal,
		onHeal:    cfg.OnHeal,
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

func (s *precheckScheme) Name() string {
	return fmt.Sprintf("Data CW w/Precheck, %d byte", s.tab.RegionSize())
}

func (s *precheckScheme) Kind() Kind               { return KindPrecheck }
func (s *precheckScheme) RegionSize() int          { return s.tab.RegionSize() }
func (s *precheckScheme) Protector() mem.Protector { return mem.NopProtector{} }

// BeginUpdate takes the covering protection latches exclusive for the
// whole update bracket.
func (s *precheckScheme) BeginUpdate(addr mem.Addr, n int) (UpdateToken, error) {
	if err := s.arena.CheckRange(addr, n); err != nil {
		return UpdateToken{}, err
	}
	first, last := s.tab.RegionRange(addr, n)
	g := s.prot.AcquireRange(uint64(first), uint64(last), true)
	return UpdateToken{addr: addr, n: n, guard: g}, nil
}

// EndUpdate folds the codeword change before the protection latch is
// released (paper §3.1: "the undo image stored in the log and the current
// value of the updated region are used to update the codeword before the
// protection latch is released").
func (s *precheckScheme) EndUpdate(tok UpdateToken, old, new []byte) error {
	defer tok.guard.Release()
	return s.tab.ApplyUpdate(tok.addr, old, new)
}

func (s *precheckScheme) AbortUpdate(tok UpdateToken) error {
	tok.guard.Release()
	return nil
}

func (s *precheckScheme) PreWriteCW(mem.Addr, []byte, []byte) (region.Codeword, bool) {
	return 0, false
}

// Read takes the protection latch exclusive, recomputes the codeword of
// every region containing the data to be read, and compares it to the
// stored codeword. A mismatch prevents the read: transaction-carried
// corruption is stopped at its source.
func (s *precheckScheme) Read(addr mem.Addr, n int) (ReadInfo, error) {
	if err := s.arena.CheckRange(addr, n); err != nil {
		return ReadInfo{}, err
	}
	first, last := s.tab.RegionRange(addr, n)
	g := s.prot.AcquireRange(uint64(first), uint64(last), true)
	defer g.Release()
	for r := first; r <= last; r++ {
		if !s.tab.VerifyRegion(s.arena, r) {
			// ECC tier: the exclusive latch held for the precheck is exactly
			// the latching Repair needs, so a locatable single-word damage
			// is reconstructed in place and the read proceeds — the
			// transaction never observes the corruption.
			if s.healReads {
				if res := healRegion(s.tab, s.arena, r, s.onHeal); res.Verdict == region.VerdictRepaired {
					s.mHeals.Inc()
					s.mRegions.Inc()
					continue
				}
			}
			s.mFailures.Inc()
			if s.reg.HasSinks() {
				s.reg.Emit(obs.PrecheckFailEvent{Region: uint64(r), Addr: uint64(addr), Len: n})
				s.reg.Emit(obs.CorruptionEvent{Source: "precheck", Mismatches: 1})
			}
			return ReadInfo{}, fmt.Errorf("%w: region %d [%d,+%d)",
				ErrPrecheckFailed, r, s.tab.RegionStart(r), s.tab.RegionSize())
		}
		s.mRegions.Inc()
	}
	return ReadInfo{}, nil
}

// Diagnose classifies region r's ECC syndrome under an exclusive
// protection latch without mutating anything.
func (s *precheckScheme) Diagnose(r int) region.RepairResult {
	l := s.prot.For(uint64(r))
	l.Lock()
	defer l.Unlock()
	return s.tab.Diagnose(s.arena, r)
}

// Heal attempts in-place correction of region r under an exclusive
// protection latch.
func (s *precheckScheme) Heal(r int) region.RepairResult {
	l := s.prot.For(uint64(r))
	l.Lock()
	defer l.Unlock()
	return healRegion(s.tab, s.arena, r, s.onHeal)
}

// Audit performs the same check as a read, region by region, under
// exclusive protection latches, chunked across the scheme's worker pool.
func (s *precheckScheme) Audit() []region.Mismatch {
	return s.AuditRange(0, s.arena.Size())
}

func (s *precheckScheme) AuditRange(addr mem.Addr, n int) []region.Mismatch {
	return s.tab.AuditRangeLatched(s.arena, addr, n, s.prot, nil)
}

func (s *precheckScheme) Recompute() error {
	s.tab.RecomputeAll(s.arena)
	return nil
}

// Table exposes the codeword table for white-box tests.
func (s *precheckScheme) Table() *region.Table { return s.tab }
