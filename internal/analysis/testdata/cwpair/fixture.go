// Package cwfix is the golden fixture for the cwpair pass: an update
// that captures an undo image (or any EndUpdate method) must fold into
// the codeword on every successful path.
package cwfix

type entry struct{}

func (entry) PushPhysUndo(addr int, before []byte) {}

type table struct{}

func (table) ApplyUpdate(addr int, before, after []byte) error { return nil }

type scheme struct {
	e   entry
	tab table
}

// Shape 1: an EndUpdate that never folds.
func (s *scheme) EndUpdate(addr int, before, after []byte) error {
	return nil // want "returns success without a codeword fold"
}

// Shape 2: the fold is skipped on the fast path.
func (s *scheme) update(addr int, before, after []byte, fast bool) error {
	s.e.PushPhysUndo(addr, before)
	if fast {
		return nil // want "returns success without a codeword fold"
	}
	return s.tab.ApplyUpdate(addr, before, after)
}

// Shape 3: a fold inside a loop body does not cover the zero-iteration
// case.
func (s *scheme) updateMany(addrs []int, before, after []byte) error {
	for _, a := range addrs {
		s.e.PushPhysUndo(a, before)
	}
	for _, a := range addrs {
		if err := s.tab.ApplyUpdate(a, before, after); err != nil {
			return err
		}
	}
	return nil // want "returns success without a codeword fold"
}

// ---- clean code ----

// Folding on both branches (one fused with the return) is clean.
func (s *scheme) good(addr int, before, after []byte, fast bool) error {
	s.e.PushPhysUndo(addr, before)
	if fast {
		return s.tab.ApplyUpdate(addr, before, after)
	}
	if err := s.tab.ApplyUpdate(addr, before, after); err != nil {
		return err
	}
	return nil
}

// Error exits are exempt: a failed update is rolled back, not folded.
func (s *scheme) errExit(addr int, before []byte, err error) error {
	s.e.PushPhysUndo(addr, before)
	if err != nil {
		return err
	}
	return s.tab.ApplyUpdate(addr, nil, nil)
}

// drain folds on its only path, so it exports the folds-fact …
func (s *scheme) drain(addr int) {
	_ = s.tab.ApplyUpdate(addr, nil, nil)
}

// … and calling it counts as the fold here.
func (s *scheme) viaWrapper(addr int, before []byte) error {
	s.e.PushPhysUndo(addr, before)
	s.drain(addr)
	return nil
}

// ---- S1 pairing (the ECC tier's rule) ----

type ecctable struct {
	cws []uint64
	s1  []uint64
}

// Storing a codeword without touching S1 anywhere in the function leaves
// the (S0, S1) pair inconsistent.
func (t *ecctable) badStore(r int, cw uint64) {
	t.cws[r] = cw // want "stores a region codeword without maintaining S1"
}

// An op-assign store is a store too.
func (t *ecctable) badXorStore(r int, delta uint64) {
	t.cws[r] ^= delta // want "stores a region codeword without maintaining S1"
}

// Folding S1 beside the codeword is clean.
func (t *ecctable) goodStore(r int, delta, s1 uint64) {
	t.cws[r] ^= delta
	if t.s1 != nil {
		t.s1[r] ^= s1
	}
}

// Any touch of the s1 field counts as maintenance.
func (t *ecctable) goodCopy(r int, cw uint64, fresh []uint64) {
	t.cws[r] = cw
	copy(t.s1, fresh)
}

// A deliberate raw store carries an allow.
func (t *ecctable) allowedRaw(r int, cw uint64) {
	//dbvet:allow cwpair fixture: raw install, S1 rederived by a later recompute
	t.cws[r] = cw
}
