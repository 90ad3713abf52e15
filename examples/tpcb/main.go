// TPC-B workload demo: runs the paper's benchmark workload (§5.2) under a
// chosen protection scheme, prints throughput and the balance-sum
// consistency invariant, then crashes and recovers to show the workload
// state survives.
//
//	go run ./examples/tpcb [-scheme baseline|datacw|precheck|readlog|cwreadlog|hw] [-ops N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/tpcb"
)

func main() {
	schemeName := flag.String("scheme", "datacw", "protection scheme")
	ops := flag.Int("ops", 5000, "operations to run")
	flag.Parse()

	kind, err := protect.ParseKind(*schemeName)
	if err != nil {
		log.Fatal(err)
	}
	// The simulated protector: a demo should not need mprotect rights.
	pc := protect.Config{Kind: kind, ForceSimProtect: true}

	dir, err := os.MkdirTemp("", "tpcb-demo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	scale := tpcb.SmallScale
	if scale.HistoryCap < *ops {
		scale.HistoryCap = *ops
	}
	cfg := core.Config{Dir: dir, ArenaSize: scale.ArenaSize(), Protect: pc}
	db, err := core.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w, err := tpcb.Setup(db, scale, time.Now().UnixNano()%1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d accounts / %d tellers / %d branches under %s\n",
		scale.Accounts, scale.Tellers, scale.Branches, db.Scheme().Name())

	start := time.Now()
	if err := w.Run(*ops); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("ran %d operations in %v (%.0f ops/sec), committing every %d ops\n",
		*ops, elapsed.Round(time.Millisecond), float64(*ops)/elapsed.Seconds(), tpcb.CommitEvery)

	a, t, b := w.Balances()
	fmt.Printf("balance sums: accounts=%d tellers=%d branches=%d (equal deltas => consistent)\n", a, t, b)
	if err := db.Audit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("audit: clean")

	// Engine internals via the obs snapshot: counters are atomic reads,
	// histograms carry the full latency distribution.
	snap := db.Metrics()
	fmt.Printf("metrics: %d txns, %d ops, %d updates, %d reads, %d read-log records, %d protect calls\n",
		snap.Counter(obs.NameTxnsCommitted), snap.Counter(obs.NameOps),
		snap.Counter(obs.NameUpdates), snap.Counter(obs.NameReads),
		snap.Counter(obs.NameReadRecords), snap.Counter(obs.NameProtectCalls))
	if fsync := snap.Histogram(obs.NameWALFsyncNS); fsync.Count > 0 {
		gc := snap.Histogram(obs.NameWALGroupCommit)
		fmt.Printf("log: %d fsyncs, p50 %.1fus p99 %.1fus, group commit %.1f records/flush\n",
			fsync.Count, float64(fsync.Quantile(0.5))/1e3, float64(fsync.Quantile(0.99))/1e3, gc.Mean())
	}

	// Crash and recover.
	db.Crash()
	fmt.Println("crash: simulated process failure")
	db2, rep, err := recovery.Open(cfg, recovery.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	w2, err := tpcb.Attach(db2, scale, 1)
	if err != nil {
		log.Fatal(err)
	}
	a2, t2, b2 := w2.Balances()
	fmt.Printf("recovered: scanned %d records, balances %d/%d/%d, history=%d\n",
		rep.RecordsScanned, a2, t2, b2, w2.HistoryCount())
	if a2 != a || t2 != t || b2 != b {
		log.Fatal("recovery changed committed balances")
	}
	fmt.Println("committed state survived the crash intact")
}
