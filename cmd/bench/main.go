// Command bench is the repository's one benchmark harness: five
// closed-loop workloads at GOMAXPROCS = nproc, each checked against an
// oracle, reported as end-to-end metrics and per-layer metrics under one
// schema. See README.md in this directory.
//
// Usage:
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one pass, one JSON result line (BENCHMARK.json's command)
//	bench run [-workloads a,b] [-seed N] [-out FILE]         every pass of every workload, one JSON document
//	bench compare [-spec BENCHMARK.json] a.json b.json       regression check between two documents
//
// The engine is measured from outside only: the drivers call the public
// functions of the engine's packages and read DB.Metrics/Router.Metrics.
// The harness sets no tuning knob and makes no performance claim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = cmdRun(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = cmdCompare(args[1:])
	default:
		err = cmdOne(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// common are the flags every measuring mode shares.
type common struct {
	seed       int64
	seconds    int
	workDir    string
	allowTmpfs bool
	traceOut   string
	verbose    bool
}

func (c *common) register(fs *flag.FlagSet) {
	fs.Int64Var(&c.seed, "seed", 1, "seed every client RNG is derived from")
	fs.IntVar(&c.seconds, "seconds", refSeconds, "measuring time the fixed window counts are scaled to")
	fs.StringVar(&c.workDir, "workdir", filepath.Join(".bench_build", "work"), "directory for the run's databases (removed on exit)")
	fs.BoolVar(&c.allowTmpfs, "allow-tmpfs", false, "accept a work dir on tmpfs, where fsync is free")
	fs.BoolVar(&c.verbose, "v", false, "print every sample behind each median to standard error")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the traced pass's spans to this file (JSON lines)")
}

// gcBallast pins the Go collector's pacing. The arena lives outside the Go
// heap, so under Baseline the live heap is a few MB and the collector runs
// some 300 times a second, while under Precheck the codeword table and
// locator planes (tens of MB of live heap) stretch the cycle — enough to
// rank Baseline below Precheck. A real embedding application brings a
// heap of its own; the ballast stands in for it, the same on every
// workload, so that collection frequency no longer depends on the scheme.
// It is never touched, so it adds nothing to the resident set.
var gcBallast []byte

const gcBallastBytes = 64 << 20

// prepare validates the flags, creates a private work dir and returns the
// environment block and a cleanup that removes the work dir.
func (c *common) prepare() (env, func(), error) {
	if c.seconds < 1 {
		return env{}, nil, fmt.Errorf("-seconds must be at least 1")
	}
	gcBallast = make([]byte, gcBallastBytes)
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return env{}, nil, err
	}
	dir, err := os.MkdirTemp(c.workDir, "run-")
	if err != nil {
		return env{}, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	c.workDir = dir
	e := readEnv(dir, c.seed)
	if e.Filesystem == "tmpfs" && !c.allowTmpfs {
		cleanup()
		return env{}, nil, fmt.Errorf("work dir %s is on tmpfs, where fsync costs nothing; pass -allow-tmpfs to measure anyway", dir)
	}
	if e.NProc < 2 {
		e.Warnings = append(e.Warnings, "nproc < 2: the 2-client workloads run with 1 client")
		fmt.Fprintln(os.Stderr, "bench: warning:", e.Warnings[len(e.Warnings)-1])
	}
	return e, cleanup, nil
}

// env is the document's environment block.
type env struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Filesystem string   `json:"filesystem"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds,omitempty"`
	Warnings   []string `json:"warnings,omitempty"`
}

func readEnv(workDir string, seed int64) env {
	e := env{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Filesystem: filesystemOf(workDir), Seed: seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		e.Commit += dirty
	}
	return e
}

// filesystemOf names the filesystem type of the mount holding path, from
// /proc/mounts ("unknown" where that cannot be read).
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	if real, err := filepath.EvalSymlinks(abs); err == nil {
		abs = real
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if abs == mp || mp == "/" || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/") {
			if len(mp) >= best {
				best, fstype = len(mp), f[2]
			}
		}
	}
	return fstype
}

// --- contract mode: one workload, one pass, one result line ---------------

// result is the last line of standard output in contract mode.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func cmdOne(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var c common
	c.register(fs)
	workload := fs.String("workload", "", "workload to run (required)")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass plus layers pass, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	sp, err := findWorkload(*workload)
	if err != nil {
		return err
	}
	_, cleanup, err := c.prepare()
	if err != nil {
		return err
	}
	defer cleanup()
	res, err := measureOne(sp, paperSizing, c, *trace == 1)
	if err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureOne runs one pass of sp and reduces it to the contract's result:
// every end-to-end metric (as a median) for an untraced pass, every
// per-layer metric for a traced one.
func measureOne(sp *spec, sz sizing, c common, traced bool) (*result, error) {
	pass, err := runPass(sp, sz, passOpts{seed: c.seed, seconds: c.seconds, workDir: c.workDir, traced: traced})
	if err != nil {
		return nil, err
	}
	attempted, failed := pass.totals()
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !traced {
		for name, values := range pass.endToEnd() {
			if ungated[name] {
				continue
			}
			res.Metrics[name] = metric{Value: median(values), Unit: units[name]}
			if c.verbose {
				fmt.Fprintf(os.Stderr, "bench: %s: %s %v\n", sp.name, name, values)
			}
		}
		return res, nil
	}
	if pass.dropped > 0 {
		return nil, fmt.Errorf("span buffer overflowed: %d spans dropped", pass.dropped)
	}
	if c.traceOut != "" {
		if err := writeSpans(c.traceOut, pass.tracers); err != nil {
			return nil, err
		}
	}
	lc, err := runLayers(sz, c.workDir, c.seed)
	if err != nil {
		return nil, err
	}
	for name, v := range perLayer(pass, lc) {
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	return res, nil
}

// --- document mode: every workload, one JSON document ----------------------

type row struct {
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	N        int     `json:"n"`
}

type document struct {
	Env     env     `json:"env"`
	Rows    []row   `json:"rows"`
	Summary summary `json:"summary"`
}

// summary is also printed as the last line of standard output. Claim is
// always null: this harness measures, it does not claim.
type summary struct {
	Workloads int      `json:"workloads"`
	Rows      int      `json:"rows"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Claim     *float64 `json:"claim"`
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	var c common
	c.register(fs)
	names := fs.String("workloads", "", "comma-separated workloads (default: all five)")
	out := fs.String("out", "", "write the document to this file instead of standard output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var specs []*spec
	if *names == "" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	}
	for _, n := range strings.Split(*names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			sp, err := findWorkload(n)
			if err != nil {
				return err
			}
			specs = append(specs, sp)
		}
	}
	e, cleanup, err := c.prepare()
	if err != nil {
		return err
	}
	defer cleanup()
	doc, err := measureAll(specs, paperSizing, c, e)
	if err != nil {
		return err
	}
	body, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
			return err
		}
	} else {
		fmt.Println(string(body))
	}
	line, err := json.Marshal(doc.Summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureAll runs, per workload, an untraced pass (the end-to-end rows)
// and a shorter traced pass (the per-layer rows), and the layers pass once.
func measureAll(specs []*spec, sz sizing, c common, e env) (*document, error) {
	e.Seconds = c.seconds
	doc := &document{Env: e, Summary: summary{Workloads: len(specs), Correct: true}}
	lc, err := runLayers(sz, c.workDir, c.seed)
	if err != nil {
		return nil, err
	}
	var tracers []*tracer
	for _, sp := range specs {
		fmt.Fprintf(os.Stderr, "bench: %s: untraced pass\n", sp.name)
		pass, err := runPass(sp, sz, passOpts{seed: c.seed, seconds: c.seconds, workDir: c.workDir})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		attempted, failed := pass.totals()
		doc.Summary.Attempted += attempted
		doc.Summary.Failed += failed
		e2e := pass.endToEnd()
		for _, name := range sortedKeys(e2e) {
			q1, med, q3 := quartiles(e2e[name])
			doc.Rows = append(doc.Rows, row{sp.name, "e2e", name, units[name], med, q1, q3, len(e2e[name])})
		}

		fmt.Fprintf(os.Stderr, "bench: %s: traced pass\n", sp.name)
		tp, err := runPass(sp, sz, passOpts{seed: c.seed, seconds: c.seconds, workDir: c.workDir, traced: true})
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", sp.name, err)
		}
		if tp.dropped > 0 {
			return nil, fmt.Errorf("%s: span buffer overflowed: %d spans dropped", sp.name, tp.dropped)
		}
		if c.traceOut != "" {
			tracers = append(tracers, tp.tracers...)
		}
		pl := perLayer(tp, lc)
		for _, name := range sortedKeys(pl) {
			if ungated[name] || (kvOnly(name) && !sp.kv) {
				continue // reported from the untraced pass; no such path
			}
			doc.Rows = append(doc.Rows, row{sp.name, layerOf(name), name, units[name], pl[name], pl[name], pl[name], 1})
		}
	}
	if c.traceOut != "" {
		if err := writeSpans(c.traceOut, tracers); err != nil {
			return nil, err
		}
	}
	doc.Summary.Rows = len(doc.Rows)
	return doc, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
