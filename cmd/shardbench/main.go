// Command shardbench measures multi-shard scaling of the router
// (internal/shard) with a partitioned TPC-B-style workload: each
// transaction does four read-modify-writes in its home shard (account,
// teller, branch, history — the §5.2 shape mapped onto the KV store),
// and a configurable fraction additionally touches a remote shard,
// forcing two-phase commit. The sweep runs the same load at K=1,2,4,8
// with a fixed worker count and reports transactions per second and the
// speedup over K=1.
//
// Usage:
//
//	shardbench [-txns N] [-workers N] [-cross F] [-shards 1,2,4,8] [-o out.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/shard"
)

type row struct {
	Shards     int     `json:"shards"`
	Txns       int     `json:"txns"`
	ElapsedSec float64 `json:"elapsed_sec"`
	TxnsPerSec float64 `json:"txns_per_sec"`
	Fastpath   uint64  `json:"fastpath_commits"`
	Cross      uint64  `json:"cross_commits"`
	SpeedupK1  float64 `json:"speedup_vs_k1"`
}

type sweep struct {
	CrossFrac float64 `json:"cross_fraction"`
	Rows      []row   `json:"rows"`
}

type report struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	TxnsPerRun int     `json:"txns_per_run"`
	ValueBytes int     `json:"value_bytes"`
	Sweeps     []sweep `json:"sweeps"`
}

func main() {
	txns := flag.Int("txns", 20_000, "transactions per configuration")
	workers := flag.Int("workers", 8, "concurrent client workers (fixed across K)")
	crossList := flag.String("cross", "0,0.15", "comma-separated remote-shard (2PC) transaction fractions to sweep")
	shardList := flag.String("shards", "1,2,4,8", "comma-separated shard counts to sweep")
	valueBytes := flag.Int("value", 100, "value size in bytes")
	outPath := flag.String("o", "", "write JSON report to this file (default stdout)")
	workdir := flag.String("workdir", "", "directory for run databases (default: system temp)")
	flag.Parse()

	var ks []int
	for _, s := range strings.Split(*shardList, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || k < 1 {
			fmt.Fprintf(os.Stderr, "shardbench: bad shard count %q\n", s)
			os.Exit(2)
		}
		ks = append(ks, k)
	}
	var crosses []float64
	for _, s := range strings.Split(*crossList, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || f < 0 || f > 1 {
			fmt.Fprintf(os.Stderr, "shardbench: bad cross fraction %q\n", s)
			os.Exit(2)
		}
		crosses = append(crosses, f)
	}

	rep := report{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    *workers,
		TxnsPerRun: *txns,
		ValueBytes: *valueBytes,
	}
	for _, cf := range crosses {
		sw := sweep{CrossFrac: cf}
		var base float64
		fmt.Fprintf(os.Stderr, "-- cross fraction %.2f --\n", cf)
		for _, k := range ks {
			r, err := runOne(k, *txns, *workers, cf, *valueBytes, *workdir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "shardbench: K=%d: %v\n", k, err)
				os.Exit(1)
			}
			if base == 0 {
				base = r.TxnsPerSec
			}
			r.SpeedupK1 = r.TxnsPerSec / base
			sw.Rows = append(sw.Rows, r)
			fmt.Fprintf(os.Stderr, "K=%d: %8.0f txn/s  (%.2fx vs K=%d)  fastpath=%d cross=%d\n",
				k, r.TxnsPerSec, r.SpeedupK1, ks[0], r.Fastpath, r.Cross)
		}
		rep.Sweeps = append(rep.Sweeps, sw)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardbench:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *outPath == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "shardbench:", err)
		os.Exit(1)
	}
}

func runOne(k, txns, workers int, crossFrac float64, valueBytes int, workdir string) (row, error) {
	dir, err := os.MkdirTemp(workdir, "shardbench-*")
	if err != nil {
		return row{}, err
	}
	defer os.RemoveAll(dir)

	const perShardKeys = 512
	router, _, err := shard.Open(shard.Config{
		Dir:       filepath.Join(dir, "db"),
		Shards:    k,
		ArenaSize: 1 << 22,
		ValueSize: valueBytes,
		Capacity:  8 * perShardKeys,
	})
	if err != nil {
		return row{}, err
	}
	defer router.Close()

	// Partition the keyspace by home shard, TPC-B style: each shard is a
	// branch. Per home shard, key [0] is the hot branch row (updated by
	// every transaction — the classic TPC-B contention point), keys
	// [1,tellers] are tellers, the rest accounts. A worker's transactions
	// stay inside one branch except for the cross fraction, which also
	// updates an account in the next shard over.
	homeKeys := make([][]uint64, k)
	for key := uint64(1); ; key++ {
		s := router.ShardFor(key)
		if len(homeKeys[s]) < perShardKeys {
			homeKeys[s] = append(homeKeys[s], key)
		}
		done := true
		for _, hk := range homeKeys {
			if len(hk) < perShardKeys {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	const tellers = 10

	val := make([]byte, valueBytes)
	for i := range val {
		val[i] = byte(i)
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
			n := txns / workers
			for i := 0; i < n; i++ {
				home := (w + i) % k
				keys := homeKeys[home]
				account := keys[tellers+1+rng.Intn(len(keys)-tellers-1)]
				teller := keys[1+rng.Intn(tellers)]
				branch := keys[0]
				cross := k > 1 && rng.Float64() < crossFrac
				var remote uint64
				if cross {
					rk := homeKeys[(home+1)%k]
					remote = rk[tellers+1+rng.Intn(len(rk)-tellers-1)]
				}

				// Account → teller → branch, the TPC-B order: every
				// transaction walks the hierarchy the same way, so lock
				// waits cannot cycle within a shard. Rare cross-shard
				// cycles (via remote accounts) resolve by lock timeout;
				// the transaction retries.
				rmw := func(txn *shard.Txn, key uint64) error {
					if _, err := txn.Get(key); err != nil && !errors.Is(err, shard.ErrNotFound) {
						return err
					}
					return txn.Put(key, val)
				}
				for attempt := 0; ; attempt++ {
					txn := router.Begin()
					err := rmw(txn, account)
					if err == nil && cross {
						err = rmw(txn, remote)
					}
					if err == nil {
						err = rmw(txn, teller)
					}
					if err == nil {
						err = rmw(txn, branch)
					}
					if err == nil {
						err = txn.Commit()
					} else {
						txn.Abort()
					}
					if err == nil {
						break
					}
					if !errors.Is(err, lockmgr.ErrTimeout) || attempt >= 10 {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return row{}, err
		}
	}
	if err := router.Audit(); err != nil {
		return row{}, fmt.Errorf("post-run audit: %w", err)
	}

	snap := router.Metrics()["router"]
	done := int(snap.Counter(obs.NameShardFastpathCommits) + snap.Counter(obs.NameShardCrossCommits))
	return row{
		Shards:     k,
		Txns:       done,
		ElapsedSec: elapsed.Seconds(),
		TxnsPerSec: float64(done) / elapsed.Seconds(),
		Fastpath:   snap.Counter(obs.NameShardFastpathCommits),
		Cross:      snap.Counter(obs.NameShardCrossCommits),
	}, nil
}
