package mem

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// MprotectProtector applies real mprotect system calls to an mmap-backed
// arena. It is the Go equivalent of the hardware protection scheme of
// Sullivan and Stonebraker that the paper compares against: pages are
// write-protected by default and exposed for the duration of an update.
//
// The arena's page size must be a multiple of the operating system page
// size, since the MMU cannot protect at finer granularity.
type MprotectProtector struct {
	arena *Arena

	mu       sync.Mutex
	writable []bool
	calls    atomic.Uint64
}

// NewMprotectProtector returns a protector driving real mprotect calls
// over arena. It fails if the arena is not mmap-backed or its page size is
// not a multiple of the OS page size. The arena starts fully writable;
// call ProtectAll to establish the initial protected state.
func NewMprotectProtector(arena *Arena) (*MprotectProtector, error) {
	if !mprotectSupported {
		return nil, fmt.Errorf("mem: mprotect not supported on this platform")
	}
	if !arena.Mmapped() {
		return nil, fmt.Errorf("mem: mprotect requires an mmap-backed arena")
	}
	osPage := os.Getpagesize()
	if arena.PageSize()%osPage != 0 {
		return nil, fmt.Errorf("mem: arena page size %d is not a multiple of the OS page size %d", arena.PageSize(), osPage)
	}
	w := make([]bool, arena.NumPages())
	for i := range w {
		w[i] = true
	}
	return &MprotectProtector{arena: arena, writable: w}, nil
}

// Protect write-protects the page via mprotect.
func (p *MprotectProtector) Protect(id PageID) error {
	p.calls.Add(1)
	if err := mprotect(p.arena.Page(id), false); err != nil {
		return fmt.Errorf("mem: mprotect(page %d, ro): %w", id, err)
	}
	p.mu.Lock()
	p.writable[id] = false
	p.mu.Unlock()
	return nil
}

// Unprotect makes the page writable via mprotect.
func (p *MprotectProtector) Unprotect(id PageID) error {
	p.calls.Add(1)
	if err := mprotect(p.arena.Page(id), true); err != nil {
		return fmt.Errorf("mem: mprotect(page %d, rw): %w", id, err)
	}
	p.mu.Lock()
	p.writable[id] = true
	p.mu.Unlock()
	return nil
}

// Writable reports the protector's view of the page.
func (p *MprotectProtector) Writable(id PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writable[id]
}

// Calls reports the number of Protect+Unprotect calls made.
func (p *MprotectProtector) Calls() uint64 { return p.calls.Load() }

// ProtectAll write-protects the entire arena in one system call.
func (p *MprotectProtector) ProtectAll() error {
	p.calls.Add(1)
	if err := mprotect(p.arena.Bytes(), false); err != nil {
		return fmt.Errorf("mem: mprotect(all, ro): %w", err)
	}
	p.mu.Lock()
	for i := range p.writable {
		p.writable[i] = false
	}
	p.mu.Unlock()
	return nil
}

// UnprotectAll makes the entire arena writable in one system call. This
// must be called before Close, and before handing the arena to code that
// does not follow the update interface (e.g. the checkpointer's readers
// do not need it, but restart recovery's redo pass does).
func (p *MprotectProtector) UnprotectAll() error {
	p.calls.Add(1)
	if err := mprotect(p.arena.Bytes(), true); err != nil {
		return fmt.Errorf("mem: mprotect(all, rw): %w", err)
	}
	p.mu.Lock()
	for i := range p.writable {
		p.writable[i] = true
	}
	p.mu.Unlock()
	return nil
}

// SimProtector simulates page protection with a user-space bitmap and a
// configurable per-call cost. The cost models the system-call overhead
// measured in the paper's Table 1, which varies more than 4x across
// otherwise comparable machines. A zero cost makes calls free, which is
// useful in unit tests.
//
// Unlike the MMU, the simulator cannot intercept stray stores made through
// ordinary Go slice writes; prevention is enforced only for writes issued
// through GuardedWrite, which is the path the fault injector uses.
type SimProtector struct {
	mu       sync.Mutex
	writable []bool
	calls    atomic.Uint64
	traps    atomic.Uint64
	callCost time.Duration
}

// NewSimProtector returns a simulated protector for an arena of numPages
// pages with the given per-call cost. All pages start writable.
func NewSimProtector(numPages int, callCost time.Duration) *SimProtector {
	w := make([]bool, numPages)
	for i := range w {
		w[i] = true
	}
	return &SimProtector{writable: w, callCost: callCost}
}

// charge burns the configured per-call cost without sleeping (sleep
// granularity is far too coarse for microsecond-scale syscall costs).
func (p *SimProtector) charge() {
	if p.callCost <= 0 {
		return
	}
	deadline := time.Now().Add(p.callCost)
	for time.Now().Before(deadline) {
	}
}

// Protect implements Protector.
func (p *SimProtector) Protect(id PageID) error {
	p.calls.Add(1)
	p.charge()
	p.mu.Lock()
	p.writable[id] = false
	p.mu.Unlock()
	return nil
}

// Unprotect implements Protector.
func (p *SimProtector) Unprotect(id PageID) error {
	p.calls.Add(1)
	p.charge()
	p.mu.Lock()
	p.writable[id] = true
	p.mu.Unlock()
	return nil
}

// Writable implements Protector.
func (p *SimProtector) Writable(id PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writable[id]
}

// Calls implements Protector.
func (p *SimProtector) Calls() uint64 { return p.calls.Load() }

// Traps reports how many writes were trapped (prevented) by protection.
func (p *SimProtector) Traps() uint64 { return p.traps.Load() }

// ProtectAll write-protects every page (one "call").
func (p *SimProtector) ProtectAll() error {
	p.calls.Add(1)
	p.charge()
	p.mu.Lock()
	for i := range p.writable {
		p.writable[i] = false
	}
	p.mu.Unlock()
	return nil
}

// GuardedWrite copies data to [addr, addr+len(data)) if and only if every
// covered page is writable under protector p. If any page is protected the
// write is refused with ErrTrapped and memory is unchanged, exactly as an
// MMU trap would leave it. This is the path by which the fault injector's
// wild writes are subjected to (simulated) hardware protection.
func GuardedWrite(a *Arena, p Protector, addr Addr, data []byte) error {
	if err := a.CheckRange(addr, len(data)); err != nil {
		return err
	}
	first, last := a.PageRange(addr, len(data))
	for id := first; id <= last; id++ {
		if !p.Writable(id) {
			if sp, ok := p.(*SimProtector); ok {
				sp.traps.Add(1)
			}
			return fmt.Errorf("%w: page %d", ErrTrapped, id)
		}
	}
	copy(a.Slice(addr, len(data)), data)
	return nil
}
