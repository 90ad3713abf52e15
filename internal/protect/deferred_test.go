package protect

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mem"
)

// pendingDeltas reports the deferred-fold queue depth.
func pendingDeltas(s *cwScheme) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

func TestDeferredMaintainsLazily(t *testing.T) {
	a := newTestArena(t, 1<<16)
	s, err := New(a, Config{Kind: KindDeferredCW, RegionSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ds := s.(*cwScheme)
	if s.Kind() != KindDeferredCW || s.Name() == "" {
		t.Fatal("identity wrong")
	}

	doUpdate(t, s, a, 100, []byte{1, 2, 3, 4})
	if pendingDeltas(ds) == 0 {
		t.Fatal("delta applied eagerly; should be queued")
	}
	// Audit drains and then verifies cleanly.
	if bad := s.Audit(); len(bad) != 0 {
		t.Fatalf("audit: %v", bad)
	}
	if pendingDeltas(ds) != 0 {
		t.Fatal("audit did not drain the queue")
	}
}

func TestDeferredDetectsWildWrite(t *testing.T) {
	a := newTestArena(t, 1<<16)
	s, err := New(a, Config{Kind: KindDeferredCW, RegionSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	doUpdate(t, s, a, 0, []byte("legit"))
	a.Bytes()[999] ^= 0x04 // wild write
	bad := s.Audit()
	if len(bad) != 1 || bad[0].Region != 999/64 {
		t.Fatalf("audit: %v", bad)
	}
	if err := s.Recompute(); err != nil {
		t.Fatal(err)
	}
	if bad := s.Audit(); len(bad) != 0 {
		t.Fatalf("audit after recompute: %v", bad)
	}
}

func TestDeferredThresholdDrains(t *testing.T) {
	a := newTestArena(t, 1<<16)
	s, _ := New(a, Config{Kind: KindDeferredCW, RegionSize: 64})
	ds := s.(*cwScheme)
	ds.drainThreshold = 8
	for i := 0; i < 40; i++ {
		doUpdate(t, s, a, mem.Addr(i*64), []byte{byte(i + 1)})
	}
	if ds.mDrains.Load() == 0 {
		t.Fatal("threshold never triggered a drain")
	}
	if pendingDeltas(ds) >= 40 {
		t.Fatal("queue unbounded")
	}
	if bad := s.Audit(); len(bad) != 0 {
		t.Fatalf("audit: %v", bad)
	}
}

func TestDeferredZeroDeltaNotQueued(t *testing.T) {
	a := newTestArena(t, 1<<16)
	s, _ := New(a, Config{Kind: KindDeferredCW, RegionSize: 64})
	ds := s.(*cwScheme)
	// Writing identical bytes produces a zero delta: nothing to queue.
	doUpdate(t, s, a, 0, make([]byte, 16))
	if pendingDeltas(ds) != 0 {
		t.Fatalf("zero delta queued: %d", pendingDeltas(ds))
	}
}

func TestDeferredConcurrentUpdatesAndAudits(t *testing.T) {
	a := newTestArena(t, 1<<16)
	s, err := New(a, Config{Kind: KindDeferredCW, RegionSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	s.(*cwScheme).drainThreshold = 64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			base := mem.Addr(g * 16384)
			for i := 0; i < 400; i++ {
				n := 1 + rng.Intn(100)
				addr := base + mem.Addr(rng.Intn(16384-n))
				data := make([]byte, n)
				rng.Read(data)
				old := append([]byte(nil), a.Slice(addr, n)...)
				tok, err := s.BeginUpdate(addr, n)
				if err != nil {
					t.Error(err)
					return
				}
				copy(a.Slice(addr, n), data)
				if err := s.EndUpdate(tok, old, data); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	auditFail := make(chan struct{}, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if bad := s.Audit(); len(bad) != 0 {
				t.Errorf("concurrent audit failed: %v", bad[0])
				select {
				case auditFail <- struct{}{}:
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	select {
	case <-auditFail:
		t.Fatal("audit observed inconsistency")
	default:
	}
	if bad := s.Audit(); len(bad) != 0 {
		t.Fatalf("final audit: %v", bad[0])
	}
}
