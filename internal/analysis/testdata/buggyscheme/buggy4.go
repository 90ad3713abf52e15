// buggy4.go carries the fourth generation of differential violations —
// the lockset, lock-graph, and replay-determinism rules, one per check,
// each firing exactly once. Kept in a separate file so the earlier
// generations' pinned line numbers in buggy.go and buggy2.go never
// shift.
package buggyscheme

import (
	"sync"

	"repro/internal/latch"
)

// Violation 11 (latchorder fields): the watermark is latched at two
// sites and read bare at a third.
type tailState struct {
	mu      latch.Latch
	durable uint64
}

func (t *tailState) bump() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.durable++
}

func (t *tailState) snapshot() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.durable
}

func (t *tailState) peekDurable() uint64 {
	return t.durable
}

// Violation 12 (latchorder cycles): two mutexes taken in opposite
// orders on two paths — invisible to the rank list, a deadlock in the
// inferred graph.
type metaStore struct {
	idx sync.Mutex
	dat sync.Mutex
}

func (m *metaStore) idxThenDat() {
	m.idx.Lock()
	defer m.idx.Unlock()
	m.dat.Lock()
	defer m.dat.Unlock()
}

func (m *metaStore) datThenIdx() {
	m.dat.Lock()
	defer m.dat.Unlock()
	m.idx.Lock()
	defer m.idx.Unlock()
}

// Violation 13 (determinism): in-doubt gids collected in map order and
// handed back unsorted.
func flattenInDoubt(set map[uint64]bool) []uint64 {
	var out []uint64
	for gid := range set {
		out = append(out, gid)
	}
	return out
}
