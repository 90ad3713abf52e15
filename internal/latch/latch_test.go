package latch

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestLatchExclusive(t *testing.T) {
	var l Latch
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
	if got := l.ExclusiveAcquisitions(); got != 8000 {
		t.Fatalf("exclusive acquisitions = %d, want 8000", got)
	}
}

func TestLatchSharedCounters(t *testing.T) {
	var l Latch
	l.RLock()
	l.RLock()
	if got := l.SharedAcquisitions(); got != 2 {
		t.Fatalf("shared acquisitions = %d, want 2", got)
	}
	l.RUnlock()
	l.RUnlock()
	l.Lock()
	l.Unlock()
	if got := l.ExclusiveAcquisitions(); got != 1 {
		t.Fatalf("exclusive acquisitions = %d, want 1", got)
	}
}

func TestLatchSharedConcurrent(t *testing.T) {
	var l Latch
	l.RLock()
	done := make(chan struct{})
	go func() {
		l.RLock() // must not block while only shared holders exist
		l.RUnlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shared acquisition blocked by shared holder")
	}
	l.RUnlock()
}

func TestLatchExclusiveBlocksShared(t *testing.T) {
	var l Latch
	l.Lock()
	acquired := make(chan struct{})
	go func() {
		l.RLock()
		close(acquired)
		l.RUnlock()
	}()
	select {
	case <-acquired:
		t.Fatal("shared acquisition succeeded while exclusive held")
	case <-time.After(50 * time.Millisecond):
	}
	l.Unlock()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("shared acquisition never proceeded after release")
	}
}

func TestNewStripedRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	}
	for _, c := range cases {
		if got := NewStriped(c.in).Len(); got != c.want {
			t.Errorf("NewStriped(%d).Len() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestStripedForSameKeySameLatch(t *testing.T) {
	s := NewStriped(16)
	if s.For(5) != s.For(5) {
		t.Fatal("same key mapped to different latches")
	}
	if s.For(5) != s.For(5+16) {
		t.Fatal("keys congruent mod stripes mapped to different latches")
	}
}

func TestAcquireRangeSingle(t *testing.T) {
	s := NewStriped(8)
	g := s.AcquireRange(3, 3, true)
	if g.Held() != 1 {
		t.Fatalf("held = %d, want 1", g.Held())
	}
	// The covered stripe must be exclusively held.
	blocked := make(chan struct{})
	go func() {
		s.For(3).RLock()
		s.For(3).RUnlock()
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("stripe not held exclusively")
	case <-time.After(50 * time.Millisecond):
	}
	g.Release()
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("stripe never released")
	}
}

func TestAcquireRangeWholeTable(t *testing.T) {
	s := NewStriped(4)
	g := s.AcquireRange(0, 100, true)
	if g.Held() != 4 {
		t.Fatalf("held = %d, want all 4 stripes", g.Held())
	}
	g.Release()
	if g.Held() != 0 {
		t.Fatalf("held after release = %d, want 0", g.Held())
	}
}

func TestAcquireRangeReversedBounds(t *testing.T) {
	s := NewStriped(8)
	g := s.AcquireRange(5, 2, false)
	if g.Held() != 4 { // keys 2,3,4,5
		t.Fatalf("held = %d, want 4", g.Held())
	}
	g.Release()
}

func TestAcquireRangeSharedAllowsShared(t *testing.T) {
	s := NewStriped(8)
	g1 := s.AcquireRange(0, 3, false)
	g2 := s.AcquireRange(2, 5, false)
	if g1.Held() == 0 || g2.Held() == 0 {
		t.Fatal("shared guards should coexist")
	}
	g2.Release()
	g1.Release()
}

func TestAcquireRangeNoDeadlockOverlapping(t *testing.T) {
	s := NewStriped(8)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				first := uint64((i + j) % 8)
				last := first + uint64(j%5)
				g := s.AcquireRange(first, last, j%2 == 0)
				g.Release()
			}
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: overlapping range acquisitions did not finish")
	}
}

func TestReleaseEmptyGuard(t *testing.T) {
	var g MultiGuard
	g.Release() // must not panic
	g.Release()
}

func TestSortIntsProperty(t *testing.T) {
	f := func(in []int) bool {
		a := append([]int(nil), in...)
		sortInts(a)
		if len(a) != len(in) {
			return false
		}
		for i := 1; i < len(a); i++ {
			if a[i-1] > a[i] {
				return false
			}
		}
		// Same multiset: count occurrences.
		count := map[int]int{}
		for _, v := range in {
			count[v]++
		}
		for _, v := range a {
			count[v]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireRangeStripesSortedProperty(t *testing.T) {
	s := NewStriped(16)
	f := func(first, last uint16) bool {
		g := s.AcquireRange(uint64(first), uint64(last), false)
		defer g.Release()
		for i := 1; i < g.Held(); i++ {
			if g.index(i-1) >= g.index(i) {
				return false
			}
		}
		// The held set is exactly the stripes of the keys in the range.
		lo, hi := uint64(first), uint64(last)
		if hi < lo {
			lo, hi = hi, lo
		}
		want := map[int]bool{}
		for k := lo; k <= hi; k++ {
			want[s.stripeIndex(k)] = true
		}
		for i := 0; i < g.Held(); i++ {
			if !want[g.index(i)] {
				return false
			}
			delete(want, g.index(i))
		}
		return len(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
