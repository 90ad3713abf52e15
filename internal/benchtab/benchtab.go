// Package benchtab drives the paper's two experiments and formats their
// results: Table 1 ("Performance of Protect/Unprotect", §5.1) and Table 2
// ("Cost of Corruption Protection", §5.3). The same runners back the
// cmd/protbench and cmd/tpcbbench tools and the testing.B benchmarks in
// bench_test.go.
package benchtab

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/tpcb"
)

// Format renders an aligned text table.
func Format(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// --- Table 1: performance of protect/unprotect ------------------------------

// Table1Row is one platform's protect/unprotect throughput.
type Table1Row struct {
	Platform    string
	PairsPerSec float64
	Simulated   bool
	// SPECint92 is the paper's integer performance figure where known,
	// showing that mprotect cost does not track integer speed.
	SPECint92 float64
	// PairNS is the per-pair latency distribution from a separate
	// instrumented sweep (untimed rows leave it empty).
	PairNS obs.HistogramSnapshot
}

// PaperTable1 is the paper's measured Table 1, which the simulated
// platforms are calibrated to reproduce.
var PaperTable1 = []Table1Row{
	{Platform: "SPARCstation 20", PairsPerSec: 15_600, SPECint92: 88.9},
	{Platform: "UltraSPARC 2", PairsPerSec: 43_000},
	{Platform: "HP 9000 C110", PairsPerSec: 3_300, SPECint92: 170.2},
	{Platform: "SGI Challenge DM", PairsPerSec: 8_200},
}

// MeasureMprotectPairs protects and then unprotects `pages` pages, `reps`
// times, over prot, and reports pairs per second. This is the paper's
// §5.1 microbenchmark (2000 pages, 50 repetitions).
func MeasureMprotectPairs(prot interface {
	Protect(mem.PageID) error
	Unprotect(mem.PageID) error
}, pages, reps int) (float64, error) {
	start := time.Now()
	for r := 0; r < reps; r++ {
		for p := 0; p < pages; p++ {
			if err := prot.Protect(mem.PageID(p)); err != nil {
				return 0, err
			}
			if err := prot.Unprotect(mem.PageID(p)); err != nil {
				return 0, err
			}
		}
	}
	elapsed := time.Since(start)
	return float64(pages*reps) / elapsed.Seconds(), nil
}

// MeasurePairHistogram runs the protect/unprotect loop with per-pair
// timing into an obs histogram and returns its snapshot (p50/p99 pair
// latency). It is a separate sweep from MeasureMprotectPairs so the
// clock reads cannot skew the Table 1 throughput numbers.
func MeasurePairHistogram(prot interface {
	Protect(mem.PageID) error
	Unprotect(mem.PageID) error
}, pages, reps int) (obs.HistogramSnapshot, error) {
	h := obs.NewRegistry().Histogram(obs.NameBenchPairNS)
	for r := 0; r < reps; r++ {
		for p := 0; p < pages; p++ {
			start := time.Now()
			if err := prot.Protect(mem.PageID(p)); err != nil {
				return obs.HistogramSnapshot{}, err
			}
			if err := prot.Unprotect(mem.PageID(p)); err != nil {
				return obs.HistogramSnapshot{}, err
			}
			h.Since(start)
		}
	}
	return h.Snapshot(), nil
}

// RunTable1 regenerates Table 1: the host's real mprotect throughput plus
// the four paper platforms modeled with calibrated per-call costs. pages
// and reps default to the paper's 2000 and 50 when zero.
func RunTable1(pages, reps int) ([]Table1Row, error) {
	if pages == 0 {
		pages = 2000
	}
	if reps == 0 {
		reps = 50
	}
	var rows []Table1Row

	// Host row: real mprotect over an mmap-backed arena.
	arena, err := mem.NewArena(pages*os.Getpagesize(), os.Getpagesize())
	if err != nil {
		return nil, err
	}
	defer arena.Close()
	if arena.Mmapped() {
		if prot, err := mem.NewMprotectProtector(arena); err == nil {
			pps, err := MeasureMprotectPairs(prot, pages, reps)
			if err != nil {
				return nil, err
			}
			hist, err := MeasurePairHistogram(prot, pages, 1)
			if err != nil {
				return nil, err
			}
			if err := prot.UnprotectAll(); err != nil {
				return nil, err
			}
			rows = append(rows, Table1Row{Platform: "this host (real mprotect)", PairsPerSec: pps, PairNS: hist})
		}
	}

	// Simulated platforms: per-call cost calibrated to the paper's
	// pairs/second (one pair = two calls). Fewer repetitions suffice for
	// the slow simulated platforms; throughput is cost-determined.
	simReps := reps / 10
	if simReps < 1 {
		simReps = 1
	}
	for _, p := range PaperTable1 {
		perPair := time.Duration(float64(time.Second) / p.PairsPerSec)
		sim := mem.NewSimProtector(pages, perPair/2)
		pps, err := MeasureMprotectPairs(sim, pages/10, simReps)
		if err != nil {
			return nil, err
		}
		hist, err := MeasurePairHistogram(sim, pages/10, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Platform: p.Platform + " (simulated)", PairsPerSec: pps,
			Simulated: true, SPECint92: p.SPECint92, PairNS: hist,
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 rows alongside the paper's figures, with
// per-pair latency quantiles from the instrumented sweep.
func FormatTable1(rows []Table1Row) string {
	var out [][]string
	for _, r := range rows {
		spec := ""
		if r.SPECint92 > 0 {
			spec = fmt.Sprintf("%.1f", r.SPECint92)
		}
		paper := ""
		for _, p := range PaperTable1 {
			if strings.HasPrefix(r.Platform, p.Platform) {
				paper = fmt.Sprintf("%.0f", p.PairsPerSec)
			}
		}
		p50, p99 := "-", "-"
		if r.PairNS.Count > 0 {
			p50 = fmt.Sprintf("%.1f", float64(r.PairNS.Quantile(0.5))/1e3)
			p99 = fmt.Sprintf("%.1f", float64(r.PairNS.Quantile(0.99))/1e3)
		}
		out = append(out, []string{r.Platform, fmt.Sprintf("%.0f", r.PairsPerSec), paper, spec, p50, p99})
	}
	return Format([]string{"Platform", "pairs/second", "paper pairs/s", "SPECint92", "pair p50 us", "pair p99 us"}, out)
}

// --- Table 2: cost of corruption protection ---------------------------------

// SchemeSpec is one row of Table 2.
type SchemeSpec struct {
	// Label matches the paper's row name.
	Label string
	// Direct and Indirect describe the protection level, as in the paper
	// ("None", "Correct", "Prevent", "Unneeded").
	Direct   string
	Indirect string
	// Protect is the scheme configuration.
	Protect protect.Config
	// PaperOps and PaperSlowdown are the paper's measurements for
	// comparison output.
	PaperOps      float64
	PaperSlowdown float64
}

// Table2Schemes returns the paper's eight configurations in Table 2
// order. useRealMprotect selects the real system call for the Memory
// Protection row (otherwise a simulated protector with zero added cost).
func Table2Schemes(useRealMprotect bool) []SchemeSpec {
	return []SchemeSpec{
		{Label: "Baseline", Direct: "None", Indirect: "None",
			Protect: protect.Config{Kind: protect.KindBaseline}, PaperOps: 417, PaperSlowdown: 0},
		{Label: "Data CW", Direct: "Correct", Indirect: "None",
			Protect: protect.Config{Kind: protect.KindDataCW, RegionSize: 512}, PaperOps: 380, PaperSlowdown: 8.5},
		{Label: "Data CW w/Precheck, 64 byte", Direct: "Correct", Indirect: "Prevent",
			Protect: protect.Config{Kind: protect.KindPrecheck, RegionSize: 64}, PaperOps: 366, PaperSlowdown: 12.2},
		{Label: "Data CW w/ReadLog", Direct: "Correct", Indirect: "Correct",
			Protect: protect.Config{Kind: protect.KindReadLog, RegionSize: 512}, PaperOps: 345, PaperSlowdown: 17.1},
		{Label: "Data CW w/CW ReadLog", Direct: "Correct", Indirect: "Correct",
			Protect: protect.Config{Kind: protect.KindCWReadLog, RegionSize: 64}, PaperOps: 323, PaperSlowdown: 22.4},
		{Label: "Data CW w/Precheck, 512 byte", Direct: "Correct", Indirect: "Prevent",
			Protect: protect.Config{Kind: protect.KindPrecheck, RegionSize: 512}, PaperOps: 311, PaperSlowdown: 25.4},
		{Label: "Memory Protection", Direct: "Prevent", Indirect: "Unneeded",
			Protect: protect.Config{Kind: protect.KindHW, ForceSimProtect: !useRealMprotect}, PaperOps: 257, PaperSlowdown: 38.2},
		{Label: "Data CW w/Precheck, 8K byte", Direct: "Correct", Indirect: "Prevent",
			Protect: protect.Config{Kind: protect.KindPrecheck, RegionSize: 8192}, PaperOps: 115, PaperSlowdown: 72.4},
	}
}

// Table2Row is one measured row.
type Table2Row struct {
	SchemeSpec
	// OpsPerSec is the median across runs (robust against the log-force
	// jitter of shared machines; the per-run samples are also kept).
	OpsPerSec  float64
	Samples    []float64
	PctSlower  float64
	PagesPerOp float64 // protect-call pages touched per op (§5.3), HW only
	// Obs is the metrics snapshot from the last run of this scheme
	// (counters and histograms: fsync latency, group-commit batch size,
	// audit durations, precheck traffic). See FormatObsSummary.
	Obs obs.Snapshot
}

// Table2Params configures a Table 2 run.
type Table2Params struct {
	Scale tpcb.Scale
	// Ops per run (paper: 50,000) and runs to average (paper: 6).
	Ops  int
	Runs int
	// WorkDir for the per-run database directories (a temp dir when "").
	WorkDir string
	// UseRealMprotect selects real mprotect for the HW row.
	UseRealMprotect bool
	// Progress, when non-nil, receives per-run status lines.
	Progress func(string)
}

func (p Table2Params) withDefaults() Table2Params {
	if p.Ops == 0 {
		p.Ops = 50_000
	}
	if p.Runs == 0 {
		p.Runs = 6
	}
	if p.Scale.Accounts == 0 {
		p.Scale = tpcb.PaperScale
	}
	return p
}

// RunTable2 measures the TPC-B throughput of every scheme and derives the
// slowdown relative to the Baseline row, as in §5.3. Each (scheme, run)
// pair uses a fresh database; setup (table load and initial checkpoint)
// is excluded from the timed region. Runs are interleaved round-robin
// across schemes so slow periods of a shared machine hit all schemes
// alike, and the median across runs is reported.
func RunTable2(params Table2Params) ([]Table2Row, error) {
	params = params.withDefaults()
	specs := Table2Schemes(params.UseRealMprotect)
	rows := make([]Table2Row, len(specs))
	for i, spec := range specs {
		rows[i] = Table2Row{SchemeSpec: spec}
	}
	for run := 0; run < params.Runs; run++ {
		for i, spec := range specs {
			ops, pages, snap, err := runOne(params, spec, run)
			if err != nil {
				return nil, fmt.Errorf("benchtab: %s run %d: %w", spec.Label, run, err)
			}
			rows[i].Samples = append(rows[i].Samples, ops)
			rows[i].Obs = snap
			if pages > 0 {
				rows[i].PagesPerOp = pages
			}
			if params.Progress != nil {
				params.Progress(fmt.Sprintf("%-30s run %d/%d: %.0f ops/sec", spec.Label, run+1, params.Runs, ops))
			}
		}
	}
	for i := range rows {
		rows[i].OpsPerSec = median(rows[i].Samples)
	}
	base := rows[0].OpsPerSec
	for i := range rows {
		rows[i].PctSlower = 100 * (1 - rows[i].OpsPerSec/base)
	}
	return rows, nil
}

// median of a non-empty sample set.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func runOne(params Table2Params, spec SchemeSpec, run int) (opsPerSec, pagesPerOp float64, snap obs.Snapshot, err error) {
	dir, err := os.MkdirTemp(params.WorkDir, "tpcb-*")
	if err != nil {
		return 0, 0, snap, err
	}
	defer os.RemoveAll(dir)
	cfg := core.Config{
		Dir:       dir,
		ArenaSize: params.Scale.ArenaSize(),
		Protect:   spec.Protect,
	}
	// The 8K-region row needs pages at least as large as its regions
	// (core.Config.Validate requires whole regions per page).
	if rs := spec.Protect.Defaulted().RegionSize; rs > 4096 {
		cfg.PageSize = rs
	}
	db, err := core.Open(cfg)
	if err != nil {
		return 0, 0, snap, err
	}
	defer db.Close()
	w, err := tpcb.Setup(db, params.Scale, int64(run)+1)
	if err != nil {
		return 0, 0, snap, err
	}
	before := db.Metrics()
	start := time.Now()
	if err := w.Run(params.Ops); err != nil {
		return 0, 0, snap, err
	}
	elapsed := time.Since(start)
	snap = db.Metrics()
	calls := snap.Counter(obs.NameProtectCalls) - before.Counter(obs.NameProtectCalls)
	if calls > 0 {
		// Each touched page costs one unprotect + one protect call.
		pagesPerOp = float64(calls) / 2 / float64(params.Ops)
	}
	return float64(params.Ops) / elapsed.Seconds(), pagesPerOp, snap, nil
}

// SpaceOverhead reports the codeword-table space cost of a scheme as a
// fraction of the database size: one 8-byte codeword per protection
// region (the time-space tradeoff of §5.3 — smaller regions precheck
// faster but cost more space).
func (s SchemeSpec) SpaceOverhead() float64 {
	if !s.Protect.Kind.HasCodewords() {
		return 0
	}
	return 8 / float64(s.Protect.Defaulted().RegionSize)
}

// FormatObsSummary renders the per-scheme engine internals captured in
// each row's obs snapshot: log-fsync latency (p50/p99), group-commit batch
// size, audit-pass durations, and precheck/fold traffic. These are the
// mechanisms behind Table 2's throughput differences — e.g. the 8K
// precheck row's slowdown shows up directly as precheck region counts.
func FormatObsSummary(rows []Table2Row) string {
	ms := func(h obs.HistogramSnapshot, q float64) string {
		if h.Count == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", float64(h.Quantile(q))/1e6)
	}
	count := func(s obs.Snapshot, name string) string {
		v := s.Counter(name)
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", v)
	}
	var out [][]string
	for _, r := range rows {
		s := r.Obs
		fsync := s.Histogram(obs.NameWALFsyncNS)
		gc := s.Histogram(obs.NameWALGroupCommit)
		audit := s.Histogram(obs.NameAuditPassNS)
		gcMean := "-"
		if gc.Count > 0 {
			gcMean = fmt.Sprintf("%.1f", gc.Mean())
		}
		auditMean := "-"
		if audit.Count > 0 {
			auditMean = fmt.Sprintf("%.2f", audit.Mean()/1e6)
		}
		out = append(out, []string{
			r.Label,
			fmt.Sprintf("%d", fsync.Count),
			ms(fsync, 0.5), ms(fsync, 0.99),
			gcMean,
			fmt.Sprintf("%d", audit.Count), auditMean,
			count(s, obs.NamePrecheckRegions),
			count(s, obs.NamePrecheckFailures),
			count(s, obs.NameRegionFolds),
			count(s, obs.NameCWCaptures),
		})
	}
	return Format([]string{
		"Algorithm", "fsyncs", "fsync p50 ms", "fsync p99 ms",
		"grp-commit recs", "audits", "audit ms", "prechecks",
		"precheck fails", "cw folds", "cw captures",
	}, out)
}

// FormatTable2 renders measured rows next to the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var out [][]string
	for _, r := range rows {
		pages := ""
		if r.PagesPerOp > 0 {
			pages = fmt.Sprintf("%.1f", r.PagesPerOp)
		}
		space := ""
		if so := r.SpaceOverhead(); so > 0 {
			space = fmt.Sprintf("%.2f%%", so*100)
		}
		out = append(out, []string{
			r.Label, r.Direct, r.Indirect,
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.1f%%", r.PctSlower),
			fmt.Sprintf("%.0f", r.PaperOps),
			fmt.Sprintf("%.1f%%", r.PaperSlowdown),
			pages, space,
		})
	}
	return Format([]string{
		"Algorithm", "Direct", "Indirect", "Ops/Sec", "% Slower",
		"paper Ops/Sec", "paper % Slower", "pages/op", "cw space",
	}, out)
}
