// Package allowfix exercises the //dbvet:allow escape hatch: each pass
// has one violation suppressed by a well-formed directive (no
// diagnostics may survive), and one malformed directive shows that the
// escape hatch itself is checked.
package allowfix

import (
	"os"

	"repro/internal/latch"
)

type box struct {
	prot latch.Latch //dbvet:latch protection
	cw   latch.Latch //dbvet:latch codeword
}

// latchorder suppressed on the acquisition line.
func (b *box) inverted() {
	b.cw.Lock()
	defer b.cw.Unlock()
	b.prot.Lock() //dbvet:allow latchorder fixture exercises the escape hatch
	b.prot.Unlock()
}

// A directive naming a pass that is not run (here a retired one, deleted
// because the codeword audit catches every mutant it was written for)
// must itself be reported, and suppresses nothing.
func bad(path string) ([]byte, error) {
	//dbvet:allow guardedwrite retired pass name // want "names unknown pass guardedwrite"
	return os.ReadFile(path) // want "raw os.ReadFile on the durable path"
}
