// Command tpcbbench regenerates the paper's Table 2 ("Cost of Corruption
// Protection", §5.3): the TPC-B style workload of §5.2 runs under each of
// the eight protection configurations, and the tool reports operations
// per second and the slowdown relative to the unprotected baseline, next
// to the paper's own numbers. With -pagecount it also reports the pages
// touched per operation under hardware protection (the paper's ~11-page
// observation that explains why page-granularity protection is expensive
// for a non-page-based main-memory system).
//
// Usage:
//
//	tpcbbench [-ops N] [-runs N] [-scale paper|small] [-simprotect] [-workdir DIR]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchtab"
	"repro/internal/heap"
	"repro/internal/tpcb"
)

func main() {
	ops := flag.Int("ops", 50_000, "operations per run (paper: 50000)")
	runs := flag.Int("runs", 6, "runs averaged per scheme (paper: 6)")
	scaleName := flag.String("scale", "paper", "database scale: paper (100k/10k/1k) or small (1k/100/10)")
	simProtect := flag.Bool("simprotect", false, "use the simulated protector for the Memory Protection row instead of real mprotect")
	layout := flag.String("layout", "dali", "storage layout: dali (off-page allocation) or pagelocal")
	workdir := flag.String("workdir", "", "directory for run databases (default: system temp)")
	quiet := flag.Bool("q", false, "suppress per-run progress")
	flag.Parse()

	var scale tpcb.Scale
	switch *scaleName {
	case "paper":
		scale = tpcb.PaperScale
	case "small":
		scale = tpcb.SmallScale
	default:
		fmt.Fprintf(os.Stderr, "tpcbbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if scale.HistoryCap < *ops {
		scale.HistoryCap = *ops
	}
	switch *layout {
	case "dali":
		scale.Layout = heap.LayoutSeparate
	case "pagelocal":
		scale.Layout = heap.LayoutPageLocal
	default:
		fmt.Fprintf(os.Stderr, "tpcbbench: unknown layout %q\n", *layout)
		os.Exit(2)
	}

	params := benchtab.Table2Params{
		Scale:           scale,
		Ops:             *ops,
		Runs:            *runs,
		WorkDir:         *workdir,
		UseRealMprotect: !*simProtect,
	}
	if !*quiet {
		params.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	fmt.Printf("Table 2: Cost of Corruption Protection\n")
	fmt.Printf("(%d accounts / %d tellers / %d branches, %d ops/run, commit every %d ops, %d runs averaged)\n\n",
		scale.Accounts, scale.Tellers, scale.Branches, *ops, tpcb.CommitEvery, *runs)
	rows, err := benchtab.RunTable2(params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpcbbench:", err)
		os.Exit(1)
	}
	fmt.Print(benchtab.FormatTable2(rows))
	fmt.Println("\npages/op is measured from protect-call counts (paper §5.3 observed ~11,")
	fmt.Println("including off-page allocation and control information updates).")
	fmt.Printf("\nEngine internals per scheme (obs snapshot of each last run):\n\n")
	fmt.Print(benchtab.FormatObsSummary(rows))
}
