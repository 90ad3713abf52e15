// allow3.go extends the escape-hatch fixture to the third-generation
// checks: one suppressed violation each for latchorder's field and cycle
// checks and for determinism.
package allowfix

import "sync"

// The field check suppressed on the bare read of a guarded field.
type gauge struct {
	mu sync.Mutex
	v  uint64
}

func (g *gauge) set(v uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v = v
}

func (g *gauge) get() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

func (g *gauge) peek() uint64 {
	return g.v //dbvet:allow latchorder fixture exercises the escape hatch
}

// The cycle check suppressed on the acquisition that closes the cycle.
type duo struct {
	left  sync.Mutex
	right sync.Mutex
}

func (d *duo) leftRight() {
	d.left.Lock()
	defer d.left.Unlock()
	d.right.Lock()
	defer d.right.Unlock()
}

func (d *duo) rightLeft() {
	d.right.Lock()
	defer d.right.Unlock()
	d.left.Lock() //dbvet:allow latchorder fixture exercises the escape hatch
	defer d.left.Unlock()
}

// determinism suppressed on the order-observing map range.
func keysUnsorted(m map[uint64]bool) []uint64 {
	var out []uint64
	//dbvet:allow determinism fixture exercises the escape hatch
	for k := range m {
		out = append(out, k)
	}
	return out
}
