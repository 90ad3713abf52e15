package lockmgr

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

func TestSharedLocksCoexist(t *testing.T) {
	m := New(time.Second)
	if err := m.Lock(1, 100, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 100, Shared); err != nil {
		t.Fatal(err)
	}
	if m.HeldMode(1, 100) != Shared || m.HeldMode(2, 100) != Shared {
		t.Fatal("shared holders not recorded")
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := New(0) // fail fast
	if err := m.Lock(1, 100, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 100, Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("X-X conflict: %v", err)
	}
	if err := m.Lock(2, 100, Shared); !errors.Is(err, ErrTimeout) {
		t.Fatalf("S after X conflict: %v", err)
	}
	if err := m.Lock(2, 101, Exclusive); err != nil {
		t.Fatalf("distinct key blocked: %v", err)
	}
}

func TestReentrantAndNoDowngrade(t *testing.T) {
	m := New(0)
	if err := m.Lock(1, 5, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, 5, Exclusive); err != nil {
		t.Fatalf("re-acquire X: %v", err)
	}
	if err := m.Lock(1, 5, Shared); err != nil {
		t.Fatalf("S re-acquire of X holder: %v", err)
	}
	if m.HeldMode(1, 5) != Exclusive {
		t.Fatal("shared re-acquire downgraded exclusive hold")
	}
}

func TestUpgrade(t *testing.T) {
	m := New(0)
	if err := m.Lock(1, 5, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, 5, Exclusive); err != nil {
		t.Fatalf("sole-holder upgrade failed: %v", err)
	}
	if m.HeldMode(1, 5) != Exclusive {
		t.Fatal("upgrade not recorded")
	}
	// Upgrade blocked by another shared holder.
	m2 := New(0)
	m2.Lock(1, 5, Shared)
	m2.Lock(2, 5, Shared)
	if err := m2.Lock(1, 5, Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("upgrade with co-holder: %v", err)
	}
}

func TestUnlockWakesWaiter(t *testing.T) {
	m := New(5 * time.Second)
	if err := m.Lock(1, 7, Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Lock(2, 7, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	m.Unlock(1, 7)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("waiter never woke")
	}
	if m.HeldMode(2, 7) != Exclusive {
		t.Fatal("waiter did not acquire")
	}
}

func TestReleaseAll(t *testing.T) {
	m := New(time.Second)
	for k := wal.ObjectKey(0); k < 10; k++ {
		if err := m.Lock(1, k, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	if m.HeldCount(1) != 10 {
		t.Fatalf("held = %d", m.HeldCount(1))
	}
	m.ReleaseAll(1)
	if m.HeldCount(1) != 0 {
		t.Fatal("locks survive ReleaseAll")
	}
	for k := wal.ObjectKey(0); k < 10; k++ {
		if err := m.Lock(2, k, Exclusive); err != nil {
			t.Fatalf("key %d still blocked: %v", k, err)
		}
	}
}

func TestUnlockUnheldIsNoop(t *testing.T) {
	m := New(0)
	m.Unlock(1, 42) // must not panic
	m.Lock(1, 42, Shared)
	m.Unlock(2, 42) // not a holder
	if m.HeldMode(1, 42) != Shared {
		t.Fatal("innocent holder lost its lock")
	}
}

func TestTryLock(t *testing.T) {
	m := New(time.Second)
	if !m.TryLock(1, 9, Exclusive) {
		t.Fatal("TryLock on free key failed")
	}
	if m.TryLock(2, 9, Shared) {
		t.Fatal("TryLock succeeded against exclusive holder")
	}
	if !m.TryLock(1, 9, Shared) {
		t.Fatal("re-entrant TryLock failed")
	}
	m.ReleaseAll(1)
	if !m.TryLock(2, 9, Shared) {
		t.Fatal("TryLock after release failed")
	}
}

func TestDeadlockResolvedByTimeout(t *testing.T) {
	m := New(100 * time.Millisecond)
	reg := obs.NewRegistry()
	m.SetRegistry(reg)
	if err := m.Lock(1, 1, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 2, Exclusive); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.Lock(1, 2, Exclusive) }()
	go func() { errs <- m.Lock(2, 1, Exclusive) }()
	timedOut := 0
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrTimeout) {
				timedOut++
			}
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock never resolved")
		}
	}
	if timedOut == 0 {
		t.Fatal("no participant timed out of the deadlock")
	}
	if reg.Counter(obs.NameLockTimeouts).Load() == 0 {
		t.Fatal("timeout not counted")
	}
}

func TestConcurrentCounterUnderExclusiveLock(t *testing.T) {
	m := New(5 * time.Second)
	var counter int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := wal.TxnID(g + 1)
			for i := 0; i < 200; i++ {
				if err := m.Lock(txn, 1, Exclusive); err != nil {
					t.Error(err)
					return
				}
				counter++
				m.Unlock(txn, 1)
			}
		}(g)
	}
	wg.Wait()
	if counter != 1600 {
		t.Fatalf("counter = %d, want 1600 (lock did not exclude)", counter)
	}
}

func TestSharedReadersExcludeWriter(t *testing.T) {
	m := New(5 * time.Second)
	var readers atomic.Int32
	var maxReaders atomic.Int32
	var writerSawReaders atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := wal.TxnID(g + 1)
			for i := 0; i < 100; i++ {
				if err := m.Lock(txn, 1, Shared); err != nil {
					t.Error(err)
					return
				}
				n := readers.Add(1)
				for {
					old := maxReaders.Load()
					if n <= old || maxReaders.CompareAndSwap(old, n) {
						break
					}
				}
				readers.Add(-1)
				m.Unlock(txn, 1)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := m.Lock(99, 1, Exclusive); err != nil {
				t.Error(err)
				return
			}
			if readers.Load() != 0 {
				writerSawReaders.Store(true)
			}
			m.Unlock(99, 1)
		}
	}()
	wg.Wait()
	if writerSawReaders.Load() {
		t.Fatal("writer observed concurrent readers")
	}
	if maxReaders.Load() < 2 {
		t.Log("note: readers never overlapped (scheduling), lock still correct")
	}
}

func TestStatsWaits(t *testing.T) {
	m := New(time.Second)
	reg := obs.NewRegistry()
	m.SetRegistry(reg)
	m.Lock(1, 3, Exclusive)
	done := make(chan struct{})
	go func() { m.Lock(2, 3, Exclusive); close(done) }()
	time.Sleep(20 * time.Millisecond)
	m.Unlock(1, 3)
	<-done
	if waits := reg.Counter(obs.NameLockWaits).Load(); waits != 1 {
		t.Fatalf("waits = %d, want 1", waits)
	}
}
