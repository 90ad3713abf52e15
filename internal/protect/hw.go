package protect

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/region"
)

// hwScheme implements the hardware protection point of comparison: all
// pages of the database image are write-protected, and the page (or
// pages) being updated are unprotected on beginUpdate and reprotected on
// endUpdate — the "Expose Page Update Model" of Sullivan and Stonebraker
// as adapted to Dalí's in-place updates (paper §3, "Hardware Protection").
//
// Two protector backends exist: the real mprotect system call (benchmark
// runs; a genuine stray store would then fault in hardware) and the
// simulated protector (fault-injection tests and Table 1 platform models,
// where the "trap" is delivered as mem.ErrTrapped instead of SIGSEGV —
// see the substitution note in DESIGN.md).
//
// Overlapping updates to the same page by concurrent transactions are
// coordinated with per-page expose counts, since a page may be exposed by
// several in-flight updates at once and must be reprotected only when the
// last one ends.
type hwScheme struct {
	arena *mem.Arena
	prot  mem.Protector

	mu      chanMutex
	exposed []int // expose count per page
	// deferReprotect leaves fully-released pages exposed until OpEnd
	// (grouped exposure); pending tracks them.
	deferReprotect bool
	pending        map[mem.PageID]struct{}

	mExposes    *obs.Counter
	mReprotects *obs.Counter
}

// chanMutex is a tiny mutex built on a buffered channel so hwScheme has
// no direct sync dependency; it keeps the scheme struct copy-safe in
// tests that construct it directly.
type chanMutex chan struct{}

func newChanMutex() chanMutex { return make(chanMutex, 1) }

func (m chanMutex) lock()   { m <- struct{}{} }
func (m chanMutex) unlock() { <-m }

func newHWScheme(arena *mem.Arena, cfg Config) (*hwScheme, error) {
	var prot mem.Protector
	if cfg.ForceSimProtect {
		prot = mem.NewSimProtector(arena.NumPages(), 0)
	} else {
		p, err := mem.NewMprotectProtector(arena)
		if err != nil {
			return nil, fmt.Errorf("protect: hardware scheme: %w", err)
		}
		prot = p
	}
	s := &hwScheme{
		arena:          arena,
		prot:           prot,
		mu:             newChanMutex(),
		exposed:        make([]int, arena.NumPages()),
		deferReprotect: cfg.HWDeferReprotect,
		pending:        make(map[mem.PageID]struct{}),
		mExposes:       cfg.Obs.Counter(obs.NameHWExposes),
		mReprotects:    cfg.Obs.Counter(obs.NameHWReprotects),
	}
	if err := s.protectAll(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *hwScheme) protectAll() error {
	switch p := s.prot.(type) {
	case *mem.MprotectProtector:
		return p.ProtectAll()
	case *mem.SimProtector:
		return p.ProtectAll()
	default:
		return nil
	}
}

func (s *hwScheme) Name() string { return policies[KindHW].label }
func (s *hwScheme) Kind() Kind   { return KindHW }

// BeginUpdate exposes the pages covering the update.
func (s *hwScheme) BeginUpdate(addr mem.Addr, n int) (UpdateToken, error) {
	if err := s.arena.CheckRange(addr, n); err != nil {
		return UpdateToken{}, err
	}
	first, last := s.arena.PageRange(addr, n)
	tok := UpdateToken{addr: addr, n: n}
	s.mu.lock()
	defer s.mu.unlock()
	for id := first; id <= last; id++ {
		s.exposed[id]++
		if s.exposed[id] == 1 {
			if _, wasPending := s.pending[id]; wasPending {
				// Still exposed from an earlier update of this operation:
				// no system call needed.
				delete(s.pending, id)
			} else if err := s.prot.Unprotect(id); err != nil {
				// Roll back the expose counts taken so far.
				for undo := first; undo <= id; undo++ {
					s.exposed[undo]--
				}
				return UpdateToken{}, err
			} else {
				s.mExposes.Inc()
			}
		}
		tok.pages = append(tok.pages, id)
	}
	return tok, nil
}

// EndUpdate reprotects pages whose last exposing update has ended.
func (s *hwScheme) EndUpdate(tok UpdateToken, old, new []byte) error {
	return s.release(tok)
}

// AbortUpdate reprotects identically; there is no codeword state.
func (s *hwScheme) AbortUpdate(tok UpdateToken) error {
	return s.release(tok)
}

func (s *hwScheme) release(tok UpdateToken) error {
	s.mu.lock()
	defer s.mu.unlock()
	var firstErr error
	for _, id := range tok.pages {
		s.exposed[id]--
		if s.exposed[id] == 0 {
			if s.deferReprotect {
				s.pending[id] = struct{}{}
				continue
			}
			if err := s.prot.Protect(id); err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				s.mReprotects.Inc()
			}
		}
	}
	return firstErr
}

// OpEnd reprotects every page whose exposure was deferred to the end of
// the operation (grouped exposure).
func (s *hwScheme) OpEnd() error {
	s.mu.lock()
	defer s.mu.unlock()
	var firstErr error
	for id := range s.pending {
		if s.exposed[id] == 0 {
			if err := s.prot.Protect(id); err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				s.mReprotects.Inc()
			}
		}
		delete(s.pending, id)
	}
	return firstErr
}

func (s *hwScheme) PreWriteCW(mem.Addr, []byte, []byte) (region.Codeword, bool) {
	return 0, false
}

// Read needs no work: prevention is on the write side.
func (s *hwScheme) Read(addr mem.Addr, n int) (ReadInfo, error) {
	return ReadInfo{}, s.arena.CheckRange(addr, n)
}

// Audit has nothing to check; hardware protection prevents rather than
// detects.
func (s *hwScheme) Audit() []region.Mismatch                   { return nil }
func (s *hwScheme) AuditRange(mem.Addr, int) []region.Mismatch { return nil }

// Diagnose and Heal report VerdictUnsupported: the scheme keeps no
// codewords, so there is nothing to locate damage with.
func (s *hwScheme) Diagnose(r int) region.RepairResult {
	return region.RepairResult{Region: r, Verdict: region.VerdictUnsupported}
}
func (s *hwScheme) Heal(r int) region.RepairResult {
	return region.RepairResult{Region: r, Verdict: region.VerdictUnsupported}
}

// Recompute re-establishes full protection after recovery rebuilt the
// image (recovery writes with protection dropped).
func (s *hwScheme) Recompute() error { return s.protectAll() }

func (s *hwScheme) RegionSize() int { return 0 }

// Protector exposes the page protector so fault injection honors it.
func (s *hwScheme) Protector() mem.Protector { return s.prot }

// Unprotect releases protection on the whole arena; required before
// recovery rewrites the image in bulk (real mprotect would fault).
func (s *hwScheme) Unprotect() error {
	s.mu.lock()
	defer s.mu.unlock()
	if p, ok := s.prot.(*mem.MprotectProtector); ok {
		return p.UnprotectAll()
	}
	for id := 0; id < s.arena.NumPages(); id++ {
		if err := s.prot.Unprotect(mem.PageID(id)); err != nil {
			return err
		}
	}
	return nil
}
