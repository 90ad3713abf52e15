// Package obs is the zero-dependency observability layer of the storage
// manager: atomic counters and gauges, lock-free log2-bucketed histograms
// for latency and size distributions, and a Registry that names the
// metrics of one database instance and produces consistent point-in-time
// snapshots.
//
// The paper's entire evaluation is about measured overheads (Table 2's
// scheme costs, §5.3's page-touch counts); this package makes those
// measurements a first-class, stable surface instead of ad-hoc counter
// fields. The registry is the engine's only instrument set: operators,
// tools and the benchmark harness all read the same Snapshot. Hot paths
// pay one or two uncontended atomic adds per metric; histograms never
// take a lock.
//
// Metric naming convention: "<subsystem>.<metric>", with duration
// histograms suffixed "_ns" (values are nanoseconds). The canonical names
// used by the engine are collected as Name* constants in names.go.
package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. a queue depth).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of histogram buckets: bucket i counts values
// whose bit length is i, i.e. bucket 0 holds zeros and bucket i (i>0)
// holds values in [2^(i-1), 2^i). 64-bit values need 65 buckets.
const histBuckets = 65

// Histogram is a lock-free histogram over uint64 observations with
// power-of-two bucket boundaries. It is suitable for latency (nanosecond)
// and size (byte / record count) distributions: relative error of any
// reconstructed quantile is bounded by 2x, which is ample for the "where
// does the time go" questions this layer answers.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHigh returns the inclusive upper bound of bucket i.
func BucketHigh(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<i - 1
}

// Observe records a value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds (negative durations
// clamp to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d.Nanoseconds()))
}

// Since records the time elapsed since start, in nanoseconds, and returns
// it (a convenience for `defer h.Since(time.Now())`-style timing).
func (h *Histogram) Since(start time.Time) time.Duration {
	d := time.Since(start)
	h.ObserveDuration(d)
	return d
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot captures the histogram. Loads are individually atomic; a
// snapshot taken concurrently with observations may be mid-observation by
// at most the in-flight adds (count is loaded last so Count never
// undercounts the buckets).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Low: BucketLow(i), High: BucketHigh(i), Count: n})
		}
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Bucket is one populated histogram bucket.
type Bucket struct {
	Low   uint64 `json:"low"`
	High  uint64 `json:"high"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) as the
// arithmetic midpoint of the bucket containing it.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank: the smallest value with at least ceil(q*Count)
	// observations at or below it.
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.Count
		if rank <= seen {
			// Arithmetic midpoint of [Low, High]; Low may be 0.
			if b.Low == 0 {
				return b.High / 2
			}
			mid := b.Low + (b.High-b.Low)/2
			return mid
		}
	}
	last := s.Buckets[len(s.Buckets)-1]
	return last.High
}

// String renders "count=N mean=M p50=X p99=Y".
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("count=%d mean=%.0f p50=%d p99=%d max<=%d",
		s.Count, s.Mean(), s.Quantile(0.5), s.Quantile(0.99), s.Max())
}

// Max returns the upper bound of the highest populated bucket.
func (s HistogramSnapshot) Max() uint64 {
	if len(s.Buckets) == 0 {
		return 0
	}
	return s.Buckets[len(s.Buckets)-1].High
}

// Registry names the metrics of one database instance. Metric
// constructors are get-or-create, so independent subsystems may share a
// metric by name. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter with the given name.
// A nil registry returns an unregistered counter, so subsystems that were
// never wired to a registry still count into a private, harmless metric.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram with the given
// name. Duration histograms are nanosecond-valued by convention and named
// with an "_ns" suffix.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every registered metric. The registry lock is held
// while iterating (so the metric set is stable), and each value is loaded
// atomically: the snapshot is free of torn reads. Counters written
// concurrently with the snapshot may or may not be included — the
// snapshot is a consistent point-in-time view in the data-race-free
// sense, which is what DB.Metrics guarantees.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		TakenAt:    time.Now(),
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a registry's metrics. It marshals
// directly to JSON (cmd/dbstat) and renders as aligned text via Text.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Counter returns a counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Histogram returns a histogram snapshot (empty when absent).
func (s Snapshot) Histogram(name string) HistogramSnapshot { return s.Histograms[name] }

// Sub returns the counter-wise difference s minus prev (for measuring a
// benchmark window). Gauges and histograms are carried from s unchanged.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		TakenAt:    s.TakenAt,
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     s.Gauges,
		Histograms: s.Histograms,
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	return out
}

// isDurationMetric reports whether a metric name follows the nanosecond
// naming convention.
func isDurationMetric(name string) bool { return strings.HasSuffix(name, "_ns") }

func formatNS(v uint64) string { return time.Duration(v).Round(time.Microsecond).String() }

// Text renders the snapshot as sorted, aligned lines. Duration metrics
// ("_ns" suffix) are formatted as human-readable durations.
func (s Snapshot) Text() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-34s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-34s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		if isDurationMetric(n) {
			fmt.Fprintf(&b, "%-34s count=%d mean=%s p50=%s p99=%s\n",
				n, h.Count, formatNS(uint64(h.Mean())), formatNS(h.Quantile(0.5)), formatNS(h.Quantile(0.99)))
		} else {
			fmt.Fprintf(&b, "%-34s %s\n", n, h.String())
		}
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }
