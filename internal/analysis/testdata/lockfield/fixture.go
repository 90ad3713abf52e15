// Package lockfield is the golden fixture for latchorder's field check:
// three violation shapes — a bare read of a mutex-guarded counter, a
// wrong-mutex access, and a bare write of a stripe-guarded table — plus
// the sanctioned shapes (Locked-suffix methods, constructors, atomics)
// that must stay silent.
package lockfield

import (
	"sync"
	"sync/atomic"

	"repro/internal/latch"
)

// ---- shape 1: guarded counter, one bare read ----

type tail struct {
	mu    latch.Latch
	end   uint64
	n     atomic.Uint64 // atomic: exempt from tracking
	ready chan struct{} // channel: exempt from tracking
}

func (t *tail) advance(by uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.end += by
}

func (t *tail) snapshot() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.end
}

func (t *tail) peek() uint64 {
	return t.end // want "field end of tail is guarded by mu at 3 of 4 sites but read here"
}

// endLocked is sanctioned by the *Locked suffix convention: the caller
// holds t.mu.
func (t *tail) endLocked() uint64 {
	return t.end
}

// newTail is constructor-shaped: bare stores expected.
func newTail(start uint64) *tail {
	t := &tail{}
	t.end = start
	return t
}

func (t *tail) bump() {
	t.n.Add(1) // atomic access needs no latch
}

// ---- shape 2: the wrong mutex ----

type router struct {
	decMu     sync.Mutex
	decisions map[uint64]bool
	statsMu   sync.Mutex
	resolved  int
}

func (r *router) record(gid uint64, commit bool) {
	r.decMu.Lock()
	r.decisions[gid] = commit
	r.decMu.Unlock()
}

func (r *router) decided(gid uint64) bool {
	r.decMu.Lock()
	defer r.decMu.Unlock()
	return r.decisions[gid]
}

func (r *router) sweep() {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	r.resolved = len(r.decisions) // want "field decisions of router is guarded by decMu at 2 of 3 sites"
}

// ---- shape 3: stripe-guarded table, one bare write ----

type table struct {
	stripe latch.Striped
	cws    []uint32
}

func (t *table) fold(r int, delta uint32) {
	lk := t.stripe.For(uint64(r))
	lk.Lock()
	defer lk.Unlock()
	t.cws[r] ^= delta
}

func (t *table) verify(r int) uint32 {
	lk := t.stripe.For(uint64(r))
	lk.Lock()
	defer lk.Unlock()
	return t.cws[r]
}

func (t *table) clobber(r int) {
	t.cws[r] = 0 // want "field cws of table is guarded by stripe at 2 of 3 sites but written here"
}
