// Package latchcycle is the golden fixture for latchorder's cycle check:
// three cycle shapes — a direct two-latch inversion, an inversion
// hidden behind a callee's acquisition summary, and a three-node cycle
// threaded through package-level mutexes — plus consistently ordered
// code that must stay silent.
package latchcycle

import (
	"sync"

	"repro/internal/latch"
)

// ---- shape 1: direct inversion ----

type pair struct {
	a latch.Latch
	b latch.Latch
}

func (p *pair) forward() {
	p.a.Lock()
	defer p.a.Unlock()
	p.b.Lock()
	defer p.b.Unlock()
}

func (p *pair) backward() {
	p.b.Lock()
	defer p.b.Unlock()
	p.a.Lock() // want "closes a latch-order cycle: latchcycle.pair.a → latchcycle.pair.b"
	defer p.a.Unlock()
}

// ---- shape 2: inversion split across a call ----

type store struct {
	meta  sync.Mutex
	index sync.Mutex
}

// lockIndex acquires s.index; the summary travels to callers. Returning
// with it held is also a balance violation.
func (s *store) lockIndex() {
	s.index.Lock() // want "s.index.Lock() is not released on every return path"
}

func (s *store) rebuild() {
	s.meta.Lock()
	defer s.meta.Unlock()
	s.lockIndex() // edge meta → index via the callee summary
	s.index.Unlock()
}

func (s *store) compact() {
	s.index.Lock()
	defer s.index.Unlock()
	s.meta.Lock() // want "closes a latch-order cycle: latchcycle.store.meta → latchcycle.store.index"
	defer s.meta.Unlock()
}

// ---- shape 3: a three-node cycle over package-level latches ----

var (
	muAlpha sync.Mutex
	muBeta  sync.Mutex
	muGamma sync.Mutex
)

func alphaBeta() {
	muAlpha.Lock()
	defer muAlpha.Unlock()
	muBeta.Lock()
	defer muBeta.Unlock()
}

func betaGamma() {
	muBeta.Lock()
	defer muBeta.Unlock()
	muGamma.Lock()
	defer muGamma.Unlock()
}

func gammaAlpha() {
	muGamma.Lock()
	defer muGamma.Unlock()
	muAlpha.Lock() // want "closes a latch-order cycle: latchcycle.muAlpha → latchcycle.muBeta → latchcycle.muGamma"
	defer muAlpha.Unlock()
}

// ---- clean: consistent order everywhere ----

type ordered struct {
	first  latch.Latch
	second latch.Latch
}

func (o *ordered) both() {
	o.first.Lock()
	defer o.first.Unlock()
	o.second.Lock()
	defer o.second.Unlock()
}

func (o *ordered) bothAgain() {
	o.first.Lock()
	o.second.Lock()
	o.second.Unlock()
	o.first.Unlock()
}

// Sequential (non-nested) acquisitions in either order are no edge.
func (p *pair) sequential() {
	p.b.Lock()
	p.b.Unlock()
	p.a.Lock()
	p.a.Unlock()
}
