// Command tpcbbench regenerates the paper's Table 2 ("Cost of Corruption
// Protection", §5.3): the TPC-B style workload of §5.2 runs under each of
// the eight protection configurations, and the tool reports operations
// per second and the slowdown relative to the unprotected baseline, next
// to the paper's own numbers. With -pagecount it also reports the pages
// touched per operation under hardware protection (the paper's ~11-page
// observation that explains why page-granularity protection is expensive
// for a non-page-based main-memory system).
//
// With -log-streams it instead runs the parallel-logging sweep: the
// concurrent TPC-B workload at a fixed client count across WAL stream
// counts (group-commit scaling). That mode emits a JSON report (-o)
// instead of Table 2.
//
// Usage:
//
//	tpcbbench [-ops N] [-runs N] [-scale paper|small] [-simprotect] [-workdir DIR]
//	tpcbbench -log-streams 1,2,4,8 [-clients N] [-o BENCH.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

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
	streamList := flag.String("log-streams", "", "run the parallel-logging sweep over these comma-separated WAL stream counts instead of Table 2")
	clients := flag.Int("clients", 8, "concurrent clients for the -log-streams sweep")
	commitEvery := flag.Int("commit-every", 10, "operations per transaction in the -log-streams sweep")
	outPath := flag.String("o", "", "write the -log-streams JSON report to this file (default stdout)")
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

	if *streamList != "" {
		streams, err := parseIntList(*streamList)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tpcbbench: -log-streams:", err)
			os.Exit(2)
		}
		if err := runStreamSweep(scale, streams, *clients, *ops, *commitEvery, *workdir, *outPath); err != nil {
			fmt.Fprintln(os.Stderr, "tpcbbench:", err)
			os.Exit(1)
		}
		return
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

// parseIntList parses a comma-separated list of non-negative integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
