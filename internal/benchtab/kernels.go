package benchtab

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/mem"
	"repro/internal/protect"
	"repro/internal/region"
)

// --- PR 3 kernel and scan throughput report ---------------------------------
//
// The codeword kernels and the parallel scan pipeline are not part of the
// paper's tables, but they determine the constant factors behind Table 2's
// codeword rows: fold throughput bounds per-update maintenance cost, and
// audit/recompute throughput bounds how often the background auditor can
// certify the database. RunKernels measures them and the protbench tool
// writes the report as BENCH_pr3.json (format documented in EXPERIMENTS.md).

// KernelRow is one measurement of the kernel/scan benchmark.
type KernelRow struct {
	// Scheme is "kernel" for the raw per-byte primitives (fold, compute,
	// apply), or a protection scheme name (data-cw, precheck, deferred-cw)
	// for whole-arena scans run under that scheme's latch discipline.
	Scheme string `json:"scheme"`
	// RegionBytes is the protection region size the row was measured at.
	RegionBytes int `json:"region_bytes"`
	// Op is the operation: fold | compute | apply | apply-ecc | audit |
	// recompute (apply-ecc is the apply path with S1 maintenance fused
	// into the kernel).
	Op string `json:"op"`
	// Workers is the scan pool width (1 = serial path; 0 for the per-byte
	// kernel rows, which are single-threaded by nature).
	Workers int `json:"workers"`
	// MBPerSec is throughput over the bytes processed, in MiB/second.
	MBPerSec float64 `json:"mb_per_s"`
}

// KernelReport is the full benchmark output, serialized to BENCH_pr3.json.
type KernelReport struct {
	GOMAXPROCS int         `json:"gomaxprocs"`
	ArenaBytes int         `json:"arena_bytes"`
	Rows       []KernelRow `json:"rows"`
}

// KernelParams configures RunKernels.
type KernelParams struct {
	// ArenaBytes is the image size for the scan benchmarks (default 16 MiB).
	ArenaBytes int
	// RegionSizes to measure (default the paper's 64, 512, 8192).
	RegionSizes []int
	// AuditWorkers and RecomputeWorkers are the pool widths to sweep for
	// the scan rows; 1 is always prepended so every sweep has a serial
	// baseline to compute speedups against.
	AuditWorkers     []int
	RecomputeWorkers []int
	// MinTime is the minimum measurement window per row (default 100ms).
	MinTime time.Duration
}

func (p KernelParams) withDefaults() KernelParams {
	if p.ArenaBytes == 0 {
		p.ArenaBytes = 16 << 20
	}
	if len(p.RegionSizes) == 0 {
		p.RegionSizes = []int{64, 512, 8192}
	}
	p.AuditWorkers = withSerialBaseline(p.AuditWorkers)
	p.RecomputeWorkers = withSerialBaseline(p.RecomputeWorkers)
	if p.MinTime == 0 {
		p.MinTime = 100 * time.Millisecond
	}
	return p
}

// withSerialBaseline ensures the width sweep starts at 1 and is deduplicated.
func withSerialBaseline(ws []int) []int {
	out := []int{1}
	for _, w := range ws {
		if w > 1 && out[len(out)-1] != w {
			out = append(out, w)
		}
	}
	return out
}

// measureMBPS runs fn in a loop for at least minTime (after one warmup
// call) and reports MiB/second over bytesPerIter bytes per call.
func measureMBPS(bytesPerIter int, minTime time.Duration, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	iters := 0
	start := time.Now()
	for time.Since(start) < minTime {
		if err := fn(); err != nil {
			return 0, err
		}
		iters++
	}
	elapsed := time.Since(start).Seconds()
	return float64(iters) * float64(bytesPerIter) / elapsed / (1 << 20), nil
}

// kernelScanSchemes are the codeword schemes whose audit/recompute scans
// the report covers: the three distinct latch disciplines (shared-latch
// Data Codeword, exclusive-latch Read Prechecking, and drain-then-verify
// Deferred Maintenance).
var kernelScanSchemes = []protect.Kind{
	protect.KindDataCW, protect.KindPrecheck, protect.KindDeferredCW,
}

// RunKernels measures fold/compute/apply kernel throughput and per-scheme
// audit/recompute scan throughput across the requested pool widths.
func RunKernels(params KernelParams) (*KernelReport, error) {
	params = params.withDefaults()
	rep := &KernelReport{GOMAXPROCS: runtime.GOMAXPROCS(0), ArenaBytes: params.ArenaBytes}

	arena, err := mem.NewArena(params.ArenaBytes, os.Getpagesize(), mem.WithHeapBacking())
	if err != nil {
		return nil, err
	}
	defer arena.Close()
	rand.New(rand.NewSource(42)).Read(arena.Bytes())

	for _, size := range params.RegionSizes {
		// Per-byte kernel rows: fold at an unaligned phase, whole-region
		// compute, and the full ApplyUpdate maintenance path for a
		// boundary-straddling update.
		oldData := make([]byte, size)
		newData := make([]byte, size)
		rng := rand.New(rand.NewSource(int64(size)))
		rng.Read(oldData)
		rng.Read(newData)
		var cw region.Codeword
		mbps, err := measureMBPS(size, params.MinTime, func() error {
			cw = region.Fold(cw, oldData, 3)
			return nil
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, KernelRow{Scheme: "kernel", RegionBytes: size, Op: "fold", MBPerSec: mbps})

		mbps, err = measureMBPS(size, params.MinTime, func() error {
			cw = region.Compute(oldData)
			return nil
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, KernelRow{Scheme: "kernel", RegionBytes: size, Op: "compute", MBPerSec: mbps})

		tab, err := region.NewTable(params.ArenaBytes, size)
		if err != nil {
			return nil, err
		}
		addr := mem.Addr(size/2 + 3) // unaligned, straddles a region boundary
		mbps, err = measureMBPS(size, params.MinTime, func() error {
			return tab.ApplyUpdate(addr, oldData, newData)
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, KernelRow{Scheme: "kernel", RegionBytes: size, Op: "apply", MBPerSec: mbps})

		// The same maintenance path with the ECC tier on: the fused kernel
		// derives the S1 delta from the per-word old^new delta it already
		// computes, so apply-ecc vs apply is the whole marginal cost of
		// correction over detection.
		etab, err := region.NewTable(params.ArenaBytes, size)
		if err != nil {
			return nil, err
		}
		etab.EnableECC()
		mbps, err = measureMBPS(size, params.MinTime, func() error {
			return etab.ApplyUpdate(addr, oldData, newData)
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, KernelRow{Scheme: "kernel", RegionBytes: size, Op: "apply-ecc", MBPerSec: mbps})

		// Scan rows: each scheme kind at each pool width, audits and
		// recomputes over the whole arena under the scheme's own latches.
		for _, kind := range kernelScanSchemes {
			for _, workers := range params.RecomputeWorkers {
				s, err := protect.New(arena, protect.Config{
					Kind: kind, RegionSize: size, Pool: region.NewPool(workers),
				})
				if err != nil {
					return nil, err
				}
				mbps, err := measureMBPS(params.ArenaBytes, params.MinTime, s.Recompute)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, KernelRow{
					Scheme: kind.String(), RegionBytes: size, Op: "recompute",
					Workers: workers, MBPerSec: mbps,
				})
			}
			for _, workers := range params.AuditWorkers {
				s, err := protect.New(arena, protect.Config{
					Kind: kind, RegionSize: size, Pool: region.NewPool(workers),
				})
				if err != nil {
					return nil, err
				}
				if err := s.Recompute(); err != nil {
					return nil, err
				}
				mbps, err := measureMBPS(params.ArenaBytes, params.MinTime, func() error {
					if bad := s.Audit(); len(bad) != 0 {
						return fmt.Errorf("benchtab: clean image audited dirty: %v", bad[0])
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, KernelRow{
					Scheme: kind.String(), RegionBytes: size, Op: "audit",
					Workers: workers, MBPerSec: mbps,
				})
			}
		}
	}
	return rep, nil
}

// WriteJSON writes the report to path as indented JSON (the BENCH_pr3.json
// format; see EXPERIMENTS.md).
func (rep *KernelReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// serialMBPS finds the workers=1 row matching (scheme, size, op).
func (rep *KernelReport) serialMBPS(scheme string, size int, op string) float64 {
	for _, r := range rep.Rows {
		if r.Scheme == scheme && r.RegionBytes == size && r.Op == op && r.Workers == 1 {
			return r.MBPerSec
		}
	}
	return 0
}

// FormatKernels renders the report as an aligned table; parallel scan rows
// carry their speedup over the same scheme's serial (workers=1) row.
func FormatKernels(rep *KernelReport) string {
	var out [][]string
	for _, r := range rep.Rows {
		workers := "-"
		speedup := ""
		if r.Workers > 0 {
			workers = fmt.Sprintf("%d", r.Workers)
			if r.Workers > 1 {
				if base := rep.serialMBPS(r.Scheme, r.RegionBytes, r.Op); base > 0 {
					speedup = fmt.Sprintf("%.2fx vs serial", r.MBPerSec/base)
				}
			}
		}
		out = append(out, []string{
			r.Scheme, fmt.Sprintf("%d", r.RegionBytes), r.Op, workers,
			fmt.Sprintf("%.1f", r.MBPerSec), speedup,
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Codeword kernel and scan throughput (GOMAXPROCS=%d, %d MiB image)\n\n",
		rep.GOMAXPROCS, rep.ArenaBytes>>20)
	b.WriteString(Format([]string{"Scheme", "region B", "op", "workers", "MiB/s", "speedup"}, out))
	return b.String()
}

// --- PR 10 ECC overhead report ----------------------------------------------

// ECCRow compares codeword maintenance with and without the fused S1
// fold at one region size. NumPlanes is the ECC words kept per region.
type ECCRow struct {
	RegionBytes  int     `json:"region_bytes"`
	NumPlanes    int     `json:"num_planes"`
	ApplyMBPS    float64 `json:"apply_mb_per_s"`
	ApplyECCMBPS float64 `json:"apply_ecc_mb_per_s"`
	// OverheadPct is the relative slowdown of apply-ecc vs apply:
	// (apply/apply_ecc - 1) * 100.
	OverheadPct float64 `json:"overhead_pct"`
}

// ECCReport is the correction-tier overhead summary, serialized to
// BENCH_pr10.json (see EXPERIMENTS.md).
type ECCReport struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	Rows       []ECCRow `json:"rows"`
}

// ECCOverhead extracts the apply vs apply-ecc comparison from a kernel
// report.
func ECCOverhead(rep *KernelReport) *ECCReport {
	out := &ECCReport{GOMAXPROCS: rep.GOMAXPROCS}
	bySize := map[int]*ECCRow{}
	for _, r := range rep.Rows {
		if r.Scheme != "kernel" || (r.Op != "apply" && r.Op != "apply-ecc") {
			continue
		}
		row := bySize[r.RegionBytes]
		if row == nil {
			row = &ECCRow{RegionBytes: r.RegionBytes, NumPlanes: region.NumPlanesFor(r.RegionBytes)}
			bySize[r.RegionBytes] = row
			out.Rows = append(out.Rows, ECCRow{})
		}
		if r.Op == "apply" {
			row.ApplyMBPS = r.MBPerSec
		} else {
			row.ApplyECCMBPS = r.MBPerSec
		}
	}
	out.Rows = out.Rows[:0]
	for _, size := range sortedKeys(bySize) {
		row := bySize[size]
		if row.ApplyECCMBPS > 0 {
			row.OverheadPct = (row.ApplyMBPS/row.ApplyECCMBPS - 1) * 100
		}
		out.Rows = append(out.Rows, *row)
	}
	return out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[int]*ECCRow) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// WriteJSON writes the ECC overhead report to path as indented JSON.
func (rep *ECCReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatECC renders the ECC overhead report as an aligned table.
func FormatECC(rep *ECCReport) string {
	var out [][]string
	for _, r := range rep.Rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.RegionBytes),
			fmt.Sprintf("%d", r.NumPlanes),
			fmt.Sprintf("%.1f", r.ApplyMBPS),
			fmt.Sprintf("%.1f", r.ApplyECCMBPS),
			fmt.Sprintf("%.1f%%", r.OverheadPct),
		})
	}
	var b strings.Builder
	b.WriteString("ECC tier overhead: codeword maintenance with the fused S1 fold\n\n")
	b.WriteString(Format([]string{"region B", "ECC words", "apply MiB/s", "apply+ecc MiB/s", "overhead"}, out))
	return b.String()
}
