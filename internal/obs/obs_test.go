package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1 << 62, 63},
		{^uint64(0), 64},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's bounds must bracket the values it receives.
	for i := 0; i < histBuckets; i++ {
		lo, hi := BucketLow(i), BucketHigh(i)
		if lo > hi {
			t.Errorf("bucket %d: low %d > high %d", i, lo, hi)
		}
		if bucketOf(lo) != i {
			t.Errorf("bucket %d: BucketLow %d maps to bucket %d", i, lo, bucketOf(lo))
		}
		if bucketOf(hi) != i {
			t.Errorf("bucket %d: BucketHigh %d maps to bucket %d", i, hi, bucketOf(hi))
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 5, 5, 5, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	if s.Sum != 0+1+1+5+5+5+1000 {
		t.Fatalf("Sum = %d, want 1017", s.Sum)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count)
	}
	// Median of {0,1,1,5,5,5,1000} is 5, which lives in bucket [4,7].
	if q := s.Quantile(0.5); q < 4 || q > 7 {
		t.Errorf("Quantile(0.5) = %d, want within [4,7]", q)
	}
	// p99 must land in the top bucket ([512,1023]).
	if q := s.Quantile(0.99); q < 512 || q > 1023 {
		t.Errorf("Quantile(0.99) = %d, want within [512,1023]", q)
	}
	if m := s.Mean(); m < 145 || m > 146 {
		t.Errorf("Mean = %f, want ~145.3", m)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot not empty: %+v", s)
	}
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty snapshot should report zeros")
	}
}

func TestHistogramDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(1500 * time.Nanosecond)
	h.ObserveDuration(-time.Second) // clamps to zero
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("Count = %d, want 2", s.Count)
	}
	if s.Sum != 1500 {
		t.Fatalf("Sum = %d, want 1500", s.Sum)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	c.Inc()
	g.Set(5)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics should read as zero")
	}
	var r *Registry
	r.Counter("x").Inc() // private throwaway metric
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("same name should return same counter")
	}
	a.Add(3)
	if b.Load() != 3 {
		t.Fatal("counter not shared")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name should return same histogram")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name should return same gauge")
	}
}

func TestSnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("wal.appends").Add(10)
	r.Gauge("region.deferred_pending").Set(-2)
	r.Histogram("wal.fsync_ns").Observe(2048)
	s := r.Snapshot()
	if s.Counter("wal.appends") != 10 {
		t.Fatalf("counter = %d", s.Counter("wal.appends"))
	}
	if s.Gauge("region.deferred_pending") != -2 {
		t.Fatalf("gauge = %d", s.Gauge("region.deferred_pending"))
	}
	if s.Histogram("wal.fsync_ns").Count != 1 {
		t.Fatal("histogram missing from snapshot")
	}
	text := s.Text()
	for _, want := range []string{"wal.appends", "region.deferred_pending", "wal.fsync_ns"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	// Duration histograms render as durations, not raw nanoseconds.
	if !strings.Contains(text, "µs") && !strings.Contains(text, "ms") {
		t.Errorf("Text() should humanize _ns histograms:\n%s", text)
	}
	blob, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Counter("wal.appends") != 10 {
		t.Fatal("JSON round-trip lost counter")
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(5)
	before := r.Snapshot()
	c.Add(7)
	delta := r.Snapshot().Sub(before)
	if delta.Counter("x") != 7 {
		t.Fatalf("delta = %d, want 7", delta.Counter("x"))
	}
}

// TestConcurrentObserve hammers one histogram, counters, and snapshots
// from many goroutines; run under -race this verifies the lock-free
// paths are data-race free and that no observation is lost.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent snapshotter
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	var workers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func(seed uint64) {
			defer workers.Done()
			h := r.Histogram("h")
			c := r.Counter("c")
			for i := 0; i < perG; i++ {
				h.Observe(seed + uint64(i))
				c.Inc()
			}
		}(uint64(g))
	}
	workers.Wait()
	close(stop)
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("c") != goroutines*perG {
		t.Fatalf("counter = %d, want %d", s.Counter("c"), goroutines*perG)
	}
	h := s.Histogram("h")
	if h.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count, goroutines*perG)
	}
	var total uint64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != h.Count {
		t.Fatalf("bucket sum %d != count %d", total, h.Count)
	}
}
