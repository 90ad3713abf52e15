package main

import (
	"sort"

	"repro/internal/obs"
)

// quartiles returns (q1, median, q3) of xs by the method of Python's
// statistics.quantiles(xs, n=4) — the one the acceptance check uses — so
// a spread computed here and one computed by the driver agree. Fewer than
// two samples have no spread: all three are the sample.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), median(s), cut(3)
}

// median of xs (xs need not be sorted; 0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of an ascending
// slice of nanosecond latencies.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// --- Metrics() snapshots -------------------------------------------------
//
// The harness reads the engine only through DB.Metrics / Router.Metrics.
// A sharded database has one snapshot per shard plus the router's; the
// helpers below fold them into one and take window-edge differences,
// histograms included (obs.Snapshot.Sub carries histograms unchanged).

func emptySnap() obs.Snapshot {
	return obs.Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]obs.HistogramSnapshot{},
	}
}

// addSnap folds b into a (counters and histograms add).
func addSnap(a *obs.Snapshot, b obs.Snapshot) {
	for k, v := range b.Counters {
		a.Counters[k] += v
	}
	for k, h := range b.Histograms {
		a.Histograms[k] = combineHist(a.Histograms[k], h, +1)
	}
}

// subSnap returns a minus b over counters and histograms.
func subSnap(a, b obs.Snapshot) obs.Snapshot {
	out := emptySnap()
	for k, v := range a.Counters {
		out.Counters[k] = v - b.Counters[k]
	}
	for k, h := range a.Histograms {
		out.Histograms[k] = combineHist(h, b.Histograms[k], -1)
	}
	return out
}

// combineHist is a + sign*b, bucket by bucket.
func combineHist(a, b obs.HistogramSnapshot, sign int64) obs.HistogramSnapshot {
	byLow := map[uint64]obs.Bucket{}
	for _, bk := range a.Buckets {
		byLow[bk.Low] = bk
	}
	for _, bk := range b.Buckets {
		cur, ok := byLow[bk.Low]
		if !ok {
			cur = obs.Bucket{Low: bk.Low, High: bk.High}
		}
		cur.Count = uint64(int64(cur.Count) + sign*int64(bk.Count))
		byLow[bk.Low] = cur
	}
	out := obs.HistogramSnapshot{
		Count: uint64(int64(a.Count) + sign*int64(b.Count)),
		Sum:   uint64(int64(a.Sum) + sign*int64(b.Sum)),
	}
	for _, bk := range byLow {
		if bk.Count > 0 {
			out.Buckets = append(out.Buckets, bk)
		}
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Low < out.Buckets[j].Low })
	return out
}

// perUnit is a counter delta per unit of work (0 when no work was done).
func perUnit(v uint64, units int64) float64 {
	if units <= 0 {
		return 0
	}
	return float64(v) / float64(units)
}
