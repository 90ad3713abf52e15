package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/protect"
	"repro/internal/tpcb"
)

// streamRow is one point of the multi-stream commit-throughput sweep:
// the concurrent TPC-B workload at a fixed client count, varying only
// the number of WAL streams.
type streamRow struct {
	LogStreams    int     `json:"log_streams"`
	Clients       int     `json:"clients"`
	OpsCommitted  int     `json:"ops_committed"`
	TxnsCommitted int     `json:"txns_committed"`
	TxnsAborted   int     `json:"txns_aborted"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	SpeedupVsS1   float64 `json:"speedup_vs_s1"`
}

type pr8Report struct {
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Clients     int         `json:"clients"`
	OpsPerRun   int         `json:"ops_per_run"`
	CommitEvery int         `json:"commit_every"`
	Throughput  []streamRow `json:"throughput"`
}

// runStreamSweep measures concurrent TPC-B throughput at each stream
// count. The report is written as JSON to outPath ("" = stdout).
func runStreamSweep(scale tpcb.Scale, streams []int, clients, ops, commitEvery int,
	workdir, outPath string) error {
	rep := pr8Report{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Clients:     clients,
		OpsPerRun:   ops,
		CommitEvery: commitEvery,
	}
	var base float64
	for _, s := range streams {
		r, err := runStreamPoint(scale, s, clients, ops, commitEvery, workdir)
		if err != nil {
			return fmt.Errorf("streams=%d: %w", s, err)
		}
		if base == 0 {
			base = r.OpsPerSec
		}
		r.SpeedupVsS1 = r.OpsPerSec / base
		rep.Throughput = append(rep.Throughput, r)
		fmt.Fprintf(os.Stderr, "streams=%-2d %8.0f ops/sec (%.2fx vs streams=%d) committed=%d aborted=%d\n",
			s, r.OpsPerSec, r.SpeedupVsS1, streams[0], r.TxnsCommitted, r.TxnsAborted)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if outPath == "" {
		os.Stdout.Write(blob)
		return nil
	}
	return os.WriteFile(outPath, blob, 0o644)
}

func runStreamPoint(scale tpcb.Scale, logStreams, clients, ops, commitEvery int, workdir string) (streamRow, error) {
	dir, err := os.MkdirTemp(workdir, "tpcb-streams-*")
	if err != nil {
		return streamRow{}, err
	}
	defer os.RemoveAll(dir)
	db, err := core.Open(core.Config{
		Dir:        dir,
		ArenaSize:  scale.ArenaSize(),
		Protect:    protect.Config{Kind: protect.KindDataCW},
		LogStreams: logStreams,
		// Short deadlock-resolution timeout: the hot branch rows make
		// cross-client waits routine, and aborted transactions retry.
		LockTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		return streamRow{}, err
	}
	defer db.Close()
	w, err := tpcb.Setup(db, scale, int64(logStreams)+1)
	if err != nil {
		return streamRow{}, err
	}
	start := time.Now()
	res, err := w.RunConcurrent(clients, ops/clients, commitEvery)
	if err != nil {
		return streamRow{}, err
	}
	elapsed := time.Since(start)
	return streamRow{
		LogStreams:    logStreams,
		Clients:       clients,
		OpsCommitted:  res.OpsCommitted,
		TxnsCommitted: res.TxnsCommitted,
		TxnsAborted:   res.TxnsAborted,
		ElapsedSec:    elapsed.Seconds(),
		OpsPerSec:     float64(res.OpsCommitted) / elapsed.Seconds(),
	}, nil
}
