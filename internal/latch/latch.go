// Package latch provides the low-level latches used by the storage manager:
// plain shared/exclusive latches, striped latch tables used to implement
// per-protection-region latches without allocating one latch per region,
// and an ordered multi-latch helper that acquires a set of stripes in
// ascending order to avoid deadlock.
//
// The paper distinguishes three latches: the protection latch guarding a
// protection region, the codeword latch guarding the codeword value itself
// (used by the Data Codeword scheme so updaters can hold the protection
// latch in shared mode), and the system log latch guarding log flushes.
// All three are built from the types in this package.
package latch

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// waitMetrics is the optional wait instrumentation shared by a latch (or
// by every stripe of a Striped table). When present, contended
// acquisitions — those whose fast-path try fails — record their wait
// duration in a histogram and bump a contention counter.
type waitMetrics struct {
	waitHist  *obs.Histogram
	contended *obs.Counter
}

func (wm *waitMetrics) note(start time.Time) {
	wm.waitHist.Since(start)
	wm.contended.Inc()
}

// Latch is a shared/exclusive latch, optionally instrumented with a wait
// histogram and a contention counter from the database's obs.Registry.
type Latch struct {
	mu sync.RWMutex
	wm *waitMetrics
}

// Instrument enables wait instrumentation on the latch. Must be called
// before the latch is used concurrently; the uninstrumented fast path is
// a plain mutex acquisition.
func (l *Latch) Instrument(waitHist *obs.Histogram, contended *obs.Counter) {
	l.wm = &waitMetrics{waitHist: waitHist, contended: contended}
}

// Lock acquires the latch in exclusive mode.
func (l *Latch) Lock() {
	if wm := l.wm; wm != nil {
		if !l.mu.TryLock() {
			start := time.Now()
			l.mu.Lock()
			wm.note(start)
		}
	} else {
		l.mu.Lock()
	}
}

// Unlock releases an exclusive acquisition.
func (l *Latch) Unlock() { l.mu.Unlock() }

// RLock acquires the latch in shared mode.
func (l *Latch) RLock() {
	if wm := l.wm; wm != nil {
		if !l.mu.TryRLock() {
			start := time.Now()
			l.mu.RLock()
			wm.note(start)
		}
	} else {
		l.mu.RLock()
	}
}

// RUnlock releases a shared acquisition.
func (l *Latch) RUnlock() { l.mu.RUnlock() }

// Striped is a fixed-size table of latches indexed by an arbitrary integer
// key (for example a protection-region number). Keys are mapped onto
// stripes by masking, so the table provides per-key mutual exclusion with
// bounded memory. Two distinct keys may map to the same stripe; this only
// reduces concurrency, never correctness, because holding a stripe is a
// superset of holding the key.
type Striped struct {
	stripes []Latch
	mask    uint64
}

// NewStriped returns a striped latch table with at least n stripes
// (rounded up to a power of two, minimum 1).
func NewStriped(n int) *Striped {
	size := 1
	for size < n {
		size <<= 1
	}
	return &Striped{
		stripes: make([]Latch, size),
		mask:    uint64(size - 1),
	}
}

// Len reports the number of stripes.
func (s *Striped) Len() int { return len(s.stripes) }

// Instrument enables wait instrumentation on every stripe (shared
// histogram and counter). Must be called before concurrent use.
func (s *Striped) Instrument(waitHist *obs.Histogram, contended *obs.Counter) {
	wm := &waitMetrics{waitHist: waitHist, contended: contended}
	for i := range s.stripes {
		s.stripes[i].wm = wm
	}
}

// For returns the latch for key.
func (s *Striped) For(key uint64) *Latch {
	return &s.stripes[key&s.mask]
}

// stripeIndex maps key to its stripe index.
func (s *Striped) stripeIndex(key uint64) int {
	return int(key & s.mask)
}

// MultiGuard holds a set of stripes of a Striped table, acquired in
// ascending stripe order so that concurrent acquirers of overlapping key
// sets cannot deadlock. Consecutive keys map to consecutive stripes, so
// the held set is always an interval of the table that may wrap past its
// end — n stripes starting at lo — and the guard is three words, not a
// slice: taking and releasing it allocates nothing. The zero value is
// empty and may be released safely.
type MultiGuard struct {
	table     *Striped
	lo, n     int
	exclusive bool
}

// index returns the i-th held stripe in ascending stripe order: for a
// wrapped interval that is [0, wrap) followed by [lo, size).
func (g *MultiGuard) index(i int) int {
	if wrap := g.lo + g.n - len(g.table.stripes); wrap > 0 {
		if i < wrap {
			return i
		}
		return g.lo + i - wrap
	}
	return g.lo + i
}

// AcquireRange latches every stripe covering the key range [first, last]
// (inclusive). If exclusive is true the stripes are taken in exclusive
// mode, otherwise shared. Stripes are acquired in ascending order. If the
// range covers at least as many keys as there are stripes, the whole
// table is taken.
func (s *Striped) AcquireRange(first, last uint64, exclusive bool) MultiGuard {
	if last < first {
		first, last = last, first
	}
	g := MultiGuard{table: s, lo: s.stripeIndex(first), n: len(s.stripes), exclusive: exclusive}
	if span := last - first + 1; span < uint64(g.n) && span != 0 {
		g.n = int(span)
	} else {
		g.lo = 0 // every stripe is covered
	}
	for i := 0; i < g.n; i++ {
		if l := &s.stripes[g.index(i)]; exclusive {
			l.Lock()
		} else {
			l.RLock()
		}
	}
	return g
}

// Release releases every stripe held by the guard, in reverse order of
// acquisition. Releasing an empty guard is a no-op.
func (g *MultiGuard) Release() {
	for i := g.n - 1; i >= 0; i-- {
		if l := &g.table.stripes[g.index(i)]; g.exclusive {
			l.Unlock()
		} else {
			l.RUnlock()
		}
	}
	g.n = 0
}

// Held reports how many stripes the guard currently holds.
func (g *MultiGuard) Held() int { return g.n }
