package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// One pass over one workload, in the run shape every workload shares:
//
//	setup -> warm-up -> W x (measured window of a fixed count, timed
//	checkpoint) -> audit -> R x (fixed tail, Crash(), timed reopen,
//	oracle) -> oracle
//
// Counts are fixed, not seconds: with one client the byte and call counts
// of a window then repeat exactly for a seed.

type passOpts struct {
	seed    int64
	seconds int
	workDir string
	// traced selects the shorter traced pass: four windows of a third of
	// the frozen count, alternately untraced and traced, and one
	// crash/reopen round. The untraced pass has measuredWindows windows,
	// recoveryRounds reopen rounds and setupRounds timed set-ups.
	traced bool
}

type passResult struct {
	sp      *spec
	clients int

	setupS    []float64
	windows   []windowResult // measured windows, in order
	tracedWin []bool
	ckptS     []float64
	recoveryS []float64
	recov     []recoveryInfo

	// winDelta sums the Metrics() deltas taken at the edges of every
	// measured window; ckptDelta the deltas across the checkpoints
	// between them.
	winDelta  obs.Snapshot
	winBytes  []uint64 // wal.append_bytes delta of each window
	ckptDelta obs.Snapshot

	overheadBytes, arenaBytes int
	spans                     spanStats
	dropped                   int64
	pingRTTus                 float64
	tracers                   []*tracer
}

func newEngine(sp *spec, sz sizing, dir string, seed int64, spanCap int, epoch time.Time) engine {
	if sp.kv {
		return newKVEngine(sp, sz, dir, seed, spanCap, epoch)
	}
	return newTPCBEngine(sp, sz, dir, seed, spanCap, epoch)
}

func runPass(sp *spec, sz sizing, o passOpts) (res *passResult, err error) {
	windowUnits := sz.units(sp, sp.windowUnits, o.seconds)
	tailUnits := sz.units(sp, sp.tailUnits, o.seconds)
	traced := make([]bool, measuredWindows)
	setups, recoveries, spanCap := setupRounds, recoveryRounds, 0
	if o.traced {
		windowUnits = sz.units(sp, sp.windowUnits/3, o.seconds)
		traced = []bool{false, true, false, true}
		setups, recoveries = 1, 1
		// Ten calls per unit at most (kv_wire), plus the unit's own two
		// spans, over the two traced windows.
		spanCap = 2*13*windowUnits/sp.effectiveClients() + 1024
	}
	dir := filepath.Join(o.workDir, sp.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	resetPeakRSS()
	eng := newEngine(sp, sz, dir, o.seed, spanCap, time.Now())
	defer func() {
		if derr := eng.destroy(); err == nil {
			err = derr
		}
	}()
	res = &passResult{sp: sp, clients: sp.effectiveClients(), tracedWin: traced,
		winDelta: emptySnap(), ckptDelta: emptySnap()}

	// Set-up is timed several times and the median reported; the last
	// database built is the one the pass runs on.
	for i := 0; i < setups; i++ {
		if i > 0 {
			if err := eng.destroy(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := eng.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	res.overheadBytes, res.arenaBytes = eng.space()
	if kv, ok := eng.(*kvEngine); ok {
		if res.pingRTTus, err = kv.pingRTT(); err != nil {
			return nil, err
		}
	}

	if err := eng.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := eng.checkpoint(); err != nil {
		return nil, fmt.Errorf("warm-up checkpoint: %w", err)
	}

	for i, tr := range traced {
		before := eng.metrics()
		w, err := eng.window(windowUnits, tr)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", i, err)
		}
		// A partial window must never be averaged in.
		if w.attemptedUnits != windowUnits {
			return nil, fmt.Errorf("window %d ran %d units, the frozen count is %d", i, w.attemptedUnits, windowUnits)
		}
		after := eng.metrics()
		d := subSnap(after, before)
		addSnap(&res.winDelta, d)
		res.winBytes = append(res.winBytes, d.Counters[obs.NameWALAppendBytes])
		res.windows = append(res.windows, w)

		// The checkpoint between windows compacts the log (without it a
		// window runs against an ever longer log file) and is itself a
		// sample of ckpt_s.
		t0 := time.Now()
		if err := eng.checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i, err)
		}
		res.ckptS = append(res.ckptS, time.Since(t0).Seconds())
		addSnap(&res.ckptDelta, subSnap(eng.metrics(), after))
	}
	if err := eng.verify(); err != nil {
		return nil, err
	}

	for i := 0; i < recoveries; i++ {
		if _, err := eng.window(tailUnits, false); err != nil {
			return nil, fmt.Errorf("tail %d: %w", i, err)
		}
		ready, ri, err := eng.crashReopen()
		if err != nil {
			return nil, fmt.Errorf("reopen %d: %w", i, err)
		}
		res.recoveryS = append(res.recoveryS, ready.Seconds())
		res.recov = append(res.recov, ri)
		if err := eng.verify(); err != nil {
			return nil, fmt.Errorf("after reopen %d: %w", i, err)
		}
	}

	for _, t := range eng.tracers() {
		res.spans.add(t)
		if t != nil {
			res.dropped += t.dropped
			res.tracers = append(res.tracers, t)
		}
	}
	return res, nil
}

// --- end-to-end metrics ---------------------------------------------------

// totals counts the transactions attempted and failed in the measured
// windows.
func (r *passResult) totals() (attempted, failed int64) {
	for _, w := range r.windows {
		attempted += int64(w.attemptedTxns)
		failed += int64(w.failedTxns)
	}
	return
}

// endToEnd derives the end-to-end samples of an untraced pass: one value
// per window (or checkpoint, or reopen), to be reported as a median.
// It includes the ungated ones.
func (r *passResult) endToEnd() map[string][]float64 {
	attempted, failed := r.totals()
	var ops, p50, p99, logBytes []float64
	for i, w := range r.windows {
		ops = append(ops, float64(w.committedOps)/w.wall.Seconds())
		p50 = append(p50, float64(percentile(w.lat, 0.50))/1e6)
		p99 = append(p99, float64(percentile(w.lat, 0.99))/1e6)
		logBytes = append(logBytes, perUnit(r.winBytes[i], int64(w.committedOps)))
	}
	return map[string][]float64{
		"ops_per_s":          ops,
		"txn_p50_ms":         p50,
		"txn_p99_ms":         p99,
		"log_bytes_per_op":   logBytes,
		"ckpt_s":             r.ckptS,
		"recovery_s":         r.recoveryS,
		"space_overhead_pct": {100 * float64(r.overheadBytes) / float64(r.arenaBytes)},
		"rss_mb":             {peakRSSMB()},
		"setup_s":            r.setupS,
		"failed_share":       {perUnit(uint64(failed), attempted)},
	}
}

// resetPeakRSS makes the pass about to start own the process's peak
// resident set: the previous pass's garbage goes back to the system and
// the kernel's high-water mark is reset (writing 5 to clear_refs). Where
// that file is missing, a document's later workloads inherit the peak of
// earlier ones; BENCHMARK.json's command runs one pass per process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
