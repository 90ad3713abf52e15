// Package allowfix exercises the //dbvet:allow escape hatch: each pass
// has one violation suppressed by a well-formed directive (no
// diagnostics may survive), and one malformed directive shows that the
// escape hatch itself is checked.
package allowfix

import (
	"repro/internal/latch"
	"repro/internal/mem"
	"repro/internal/obs"
)

type box struct {
	prot latch.Latch //dbvet:latch protection
	cw   latch.Latch //dbvet:latch codeword
}

func (b *box) PushPhysUndo(addr mem.Addr, before []byte) {}

// latchorder suppressed on the acquisition line.
func (b *box) inverted() {
	b.cw.Lock()
	defer b.cw.Unlock()
	b.prot.Lock() //dbvet:allow latchorder fixture exercises the escape hatch
	b.prot.Unlock()
}

// guardedwrite suppressed from the line above.
func wild(a *mem.Arena) {
	//dbvet:allow guardedwrite fixture exercises the escape hatch
	a.Bytes()[0] = 1
}

// cwpair suppressed on the fold-less return.
func (b *box) EndUpdate(addr mem.Addr, before, after []byte) error {
	b.PushPhysUndo(addr, before)
	return nil //dbvet:allow cwpair fixture exercises the escape hatch
}

// obsnames suppressed on the undeclared name.
func metrics(reg *obs.Registry) {
	reg.Counter("allowfix.total") //dbvet:allow obsnames fixture exercises the escape hatch
}

// A directive naming a pass that is not run (here a retired one, folded
// into latchorder) must itself be reported.
func bad(a *mem.Arena) {
	//dbvet:allow latchcycle retired pass name // want "names unknown pass latchcycle"
	a.Bytes()[0] = 1 // want "store into mem.Arena-backed memory"
}
