package lockmgr

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestUncontendedLockAllocatesNothing is the lock manager's allocation
// budget: once the pools have seen the working set, a transaction taking
// eight locks on keys nobody has locked before and releasing them all
// touches the heap zero times — no lock state, no holder map, no condition
// variable, no per-transaction key map.
func TestUncontendedLockAllocatesNothing(t *testing.T) {
	m := New(time.Second)
	var txn wal.TxnID
	var key wal.ObjectKey
	var lockErr error
	round := func() {
		txn++
		for i := 0; i < 8; i++ {
			key++
			if err := m.Lock(txn, key, Exclusive); err != nil {
				lockErr = err
			}
		}
		m.ReleaseAll(txn)
	}
	for i := 0; i < 100; i++ {
		round() // fill the pools and size the two maps
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("8 x Lock + ReleaseAll allocated %.1f times, want 0", allocs)
	}
	if lockErr != nil {
		t.Fatal(lockErr)
	}
	checkDrained(t, m)
}

// checkInvariants verifies the pooling contract: a state is in the table
// exactly while it has a holder or a waiter, and a pooled state has
// neither and is not in the table.
func checkInvariants(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	live := map[*lockState]bool{}
	for key, s := range m.locks {
		live[s] = true
		if len(s.holders) == 0 && s.waiters == 0 {
			t.Errorf("key %d: idle state left in the lock table", key)
		}
	}
	for _, s := range m.free {
		if s.waiters != 0 || len(s.holders) != 0 {
			t.Errorf("pooled state has %d waiters, %d holders", s.waiters, len(s.holders))
		}
		if live[s] {
			t.Error("a state is both pooled and in the lock table")
		}
	}
	for txn, keys := range m.held {
		for _, key := range keys {
			if s := m.locks[key]; s == nil || s.modeOf(txn) == 0 {
				t.Errorf("txn %d lists key %d but does not hold it", txn, key)
			}
		}
	}
}

func checkDrained(t *testing.T, m *Manager) {
	t.Helper()
	checkInvariants(t, m)
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.locks) != 0 || len(m.held) != 0 {
		t.Fatalf("%d lock states and %d transaction lists left after everything was released",
			len(m.locks), len(m.held))
	}
}

// TestLockTableDrains walks the paths that leave a waiter or a refused
// request behind — timeout, cancellation, a blocked upgrade, a TryLock
// conflict, a hand-off to a waiter — and checks that once every
// transaction has released, the table is empty and every state is back in
// the pool.
func TestLockTableDrains(t *testing.T) {
	m := New(30 * time.Millisecond)

	// Timeout behind an exclusive holder.
	must(t, m.Lock(1, 10, Exclusive))
	if err := m.Lock(2, 10, Shared); !errors.Is(err, ErrTimeout) {
		t.Fatalf("wait behind X: %v", err)
	}
	checkInvariants(t, m)

	// Cancellation while queued.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.LockCtx(ctx, 3, 10, Exclusive) }()
	waitForWaiter(t, m, 10)
	checkInvariants(t, m) // a state with a waiter is in the table, not the pool
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait: %v", err)
	}

	// Upgrade blocked by a second shared holder, then granted.
	must(t, m.Lock(4, 11, Shared))
	must(t, m.Lock(5, 11, Shared))
	if err := m.Lock(4, 11, Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("upgrade with a co-holder: %v", err)
	}
	m.ReleaseAll(5)
	must(t, m.Lock(4, 11, Exclusive))
	if n := m.HeldCount(4); n != 1 {
		t.Fatalf("an upgrade listed the key %d times", n)
	}

	// TryLock conflict creates nothing.
	if m.TryLock(6, 10, Shared) {
		t.Fatal("TryLock beat an exclusive holder")
	}
	if m.HeldCount(6) != 0 {
		t.Fatal("a refused TryLock left a key listed")
	}

	// Hand-off: the holder releases while a waiter sleeps on the state.
	m2 := New(5 * time.Second)
	must(t, m2.Lock(1, 20, Exclusive))
	go func() { done <- m2.Lock(2, 20, Exclusive) }()
	waitForWaiter(t, m2, 20)
	m2.ReleaseAll(1)
	checkInvariants(t, m2)
	must(t, <-done)
	m2.Unlock(2, 20)
	checkDrained(t, m2)

	for txn := wal.TxnID(1); txn <= 6; txn++ {
		m.ReleaseAll(txn)
	}
	checkDrained(t, m)
}

// TestPoolInvariantsUnderContention checks the same invariants while
// goroutines fight over a handful of keys with short timeouts, so states
// cycle between table and pool with waiters coming and going. Run under
// -race.
func TestPoolInvariantsUnderContention(t *testing.T) {
	m := New(2 * time.Millisecond)
	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
				checkInvariants(t, m)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				txn := wal.TxnID(g*1000 + i + 1)
				for k := 0; k < 3; k++ {
					mode := Shared
					if (g+i+k)%3 == 0 {
						mode = Exclusive
					}
					err := m.Lock(txn, wal.ObjectKey((g+i+k)%4), mode)
					if err != nil && !errors.Is(err, ErrTimeout) {
						t.Error(err)
					}
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	checker.Wait()
	checkDrained(t, m)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// waitForWaiter blocks until some goroutine is queued on key.
func waitForWaiter(t *testing.T, m *Manager, key wal.ObjectKey) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		s := m.locks[key]
		queued := s != nil && s.waiters > 0
		m.mu.Unlock()
		if queued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no waiter ever queued on key %d", key)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
