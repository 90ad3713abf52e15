package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json: the comparator reads each end-to-end
// metric's direction and bound from it, and the smoke test holds the
// harness to the rest.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// cmdCompare prints, per workload and end-to-end metric, both medians,
// the change of b relative to a, and the metric's bound. A row is
// "unresolved" when either side's q1-q3 spread exceeds the bound, and
// "REGRESSION" when b is worse than a by more than the bound; any
// regression makes the command fail.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare needs two documents: a.json b.json")
	}
	var spec benchmarkFile
	var a, b document
	for path, v := range map[string]any{*specPath: &spec, fs.Arg(0): &a, fs.Arg(1): &b} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	find := func(d *document, workload, metric string) (row, bool) {
		for _, r := range d.Rows {
			if r.Workload == workload && r.Metric == metric && r.Layer == "e2e" {
				return r, true
			}
		}
		return row{}, false
	}
	spread := func(r row) float64 {
		if r.Median == 0 {
			return 0
		}
		return (r.Q3 - r.Q1) / r.Median
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tchange\tbound\tverdict")
	regressions, unresolved := 0, 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			ra, okA := find(&a, w.name, m.Name)
			rb, okB := find(&b, w.name, m.Name)
			if !okA || !okB {
				continue
			}
			change := 0.0
			if ra.Median != 0 {
				change = (rb.Median - ra.Median) / ra.Median
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case spread(ra) > m.Bound || spread(rb) > m.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%% of %.6g\t%.1f%%\t%s\n",
				w.name, m.Name, m.Unit, ra.Median, rb.Median, 100*change, ra.Median, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return fmt.Errorf("%d end-to-end metric(s) regressed beyond their bound", regressions)
	}
	return nil
}
