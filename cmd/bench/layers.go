package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/hashidx"
	"repro/internal/heap"
	"repro/internal/lockmgr"
	"repro/internal/mem"
	"repro/internal/protect"
	"repro/internal/region"
	"repro/internal/wal"
)

// The layers pass times each layer's public functions alone, on a
// paper-scale arena and with the workloads' shapes: an 8-byte balance
// write at offset 8 of a 100-byte record, a 100-byte record read, and the
// three-record log batch of one heap update. Multiplied by the per-op
// call counts from Metrics() these give each layer's modelled share.

const (
	layerBatches = 5 // each cost is the median of this many timing batches
	pageSize     = 4096
)

var (
	regionSizes  = []int{64, 512}
	schemesTimed = []protect.Kind{protect.KindBaseline, protect.KindDataCW, protect.KindPrecheck, protect.KindCWReadLog}
)

type layerCosts struct {
	// Indexed by region size.
	applyNS, applyECCOffNS, verifyNS map[int]float64
	auditMBps, recomputeMBps         map[int]float64
	// Indexed by scheme kind. updateNS is the whole Begin/EndUpdate
	// bracket and readNS the whole Scheme.Read; the *Self values are what
	// the scheme adds over the Baseline scheme once the codeword work it
	// delegates to package region is taken out.
	updateNS, readNS         map[protect.Kind]float64
	updateSelfNS, readSelfNS map[protect.Kind]float64

	lockNS             float64 // uncontended Lock + ReleaseAll
	appendNS           float64 // per record appended to the log tail
	lookupNS, insertNS float64 // hashidx
}

// timeBatches runs fn(iters) layerBatches times and returns the median
// cost of one iteration in ns.
func timeBatches(iters int, fn func(n int)) float64 {
	var per []float64
	for b := 0; b < layerBatches; b++ {
		t0 := time.Now()
		fn(iters)
		per = append(per, float64(time.Since(t0))/float64(iters))
	}
	return median(per)
}

func runLayers(sz sizing, workDir string, seed int64) (*layerCosts, error) {
	lc := &layerCosts{
		applyNS: map[int]float64{}, applyECCOffNS: map[int]float64{}, verifyNS: map[int]float64{},
		auditMBps: map[int]float64{}, recomputeMBps: map[int]float64{},
		updateNS: map[protect.Kind]float64{}, readNS: map[protect.Kind]float64{},
		updateSelfNS: map[protect.Kind]float64{}, readSelfNS: map[protect.Kind]float64{},
	}
	rng := rand.New(rand.NewSource(seed))
	records := sz.accounts + sz.tellers + sz.branches + sz.history
	arena, err := mem.NewArena(records*recSize+records/8+64*pageSize, pageSize)
	if err != nil {
		return nil, err
	}
	defer arena.Close()
	rng.Read(arena.Bytes())
	iters := sz.layerIters
	// Record-shaped addresses: the balance field of a random record.
	addrs := make([]mem.Addr, 1<<14)
	for i := range addrs {
		addrs[i] = mem.Addr(rng.Intn(records)*recSize + offBalance)
	}
	// write8 flips the balance at addr and returns the before and after
	// images, keeping the arena and any codeword table over it in step.
	var old, cur [8]byte
	write8 := func(addr mem.Addr) {
		b := arena.Slice(addr, 8)
		copy(old[:], b)
		b[0]++
		copy(cur[:], b)
	}

	for _, rs := range regionSizes {
		for _, ecc := range []bool{true, false} {
			tab, err := region.NewTable(arena.Size(), rs)
			if err != nil {
				return nil, err
			}
			tab.SetPool(region.DefaultPool())
			if ecc {
				tab.EnableECC()
			}
			t0 := time.Now()
			tab.RecomputeAll(arena)
			recompute := time.Since(t0)
			var applyErr error
			ns := timeBatches(iters, func(n int) {
				for i := 0; i < n; i++ {
					a := addrs[i&(len(addrs)-1)]
					write8(a)
					if err := tab.ApplyUpdate(a, old[:], cur[:]); err != nil {
						applyErr = err
					}
				}
			})
			if applyErr != nil {
				return nil, applyErr
			}
			if !ecc {
				lc.applyECCOffNS[rs] = ns
				continue
			}
			lc.applyNS[rs] = ns
			lc.recomputeMBps[rs] = float64(arena.Size()) / 1e6 / recompute.Seconds()
			ok := true
			lc.verifyNS[rs] = timeBatches(iters, func(n int) {
				for i := 0; i < n; i++ {
					ok = tab.VerifyRegion(arena, tab.RegionOf(addrs[i&(len(addrs)-1)])) && ok
				}
			})
			t0 = time.Now()
			bad := tab.AuditAll(arena)
			lc.auditMBps[rs] = float64(arena.Size()) / 1e6 / time.Since(t0).Seconds()
			if !ok || len(bad) > 0 {
				return nil, fmt.Errorf("layers: codeword table at %d B regions disagrees with the arena after %d maintained updates", rs, iters)
			}
		}
	}

	for _, kind := range schemesTimed {
		s, err := protect.New(arena, protect.Config{Kind: kind})
		if err != nil {
			return nil, err
		}
		if err := s.Recompute(); err != nil {
			return nil, err
		}
		var callErr error
		lc.updateNS[kind] = timeBatches(iters, func(n int) {
			for i := 0; i < n; i++ {
				a := addrs[i&(len(addrs)-1)]
				tok, err := s.BeginUpdate(a, 8)
				if err != nil {
					callErr = err
					return
				}
				write8(a)
				if err := s.EndUpdate(tok, old[:], cur[:]); err != nil {
					callErr = err
				}
			}
		})
		lc.readNS[kind] = timeBatches(iters, func(n int) {
			for i := 0; i < n; i++ {
				a := addrs[i&(len(addrs)-1)] - offBalance
				if _, err := s.Read(a, recSize); err != nil {
					callErr = err
				}
			}
		})
		if callErr != nil {
			return nil, fmt.Errorf("layers: scheme %s: %w", kind, callErr)
		}
		if bad := s.Audit(); len(bad) > 0 {
			return nil, fmt.Errorf("layers: scheme %s: audit found %d mismatches after maintained updates", kind, len(bad))
		}
		rs := s.RegionSize()
		if rs == 0 {
			continue
		}
		base := protect.KindBaseline
		lc.updateSelfNS[kind] = max(0, lc.updateNS[kind]-lc.updateNS[base]-lc.applyNS[rs])
		lc.readSelfNS[kind] = max(0, lc.readNS[kind]-lc.readNS[base]-readRegions(kind, rs)*lc.verifyNS[rs])
	}

	locks := lockmgr.New(2 * time.Second)
	var lockErr error
	lc.lockNS = timeBatches(iters, func(n int) {
		for i := 0; i < n; i++ {
			if err := locks.Lock(wal.TxnID(i+1), wal.ObjectKey(addrs[i&(len(addrs)-1)]), lockmgr.Exclusive); err != nil {
				lockErr = err
			}
			locks.ReleaseAll(wal.TxnID(i + 1))
		}
	})
	if lockErr != nil {
		return nil, lockErr
	}

	dir := filepath.Join(workDir, "layers")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if lc.appendNS, err = timeAppend(filepath.Join(dir, "wal"), iters); err != nil {
		return nil, err
	}
	if lc.lookupNS, lc.insertNS, err = timeHashidx(filepath.Join(dir, "idx"), sz); err != nil {
		return nil, err
	}
	return lc, nil
}

// timeAppend times LogSet.Append of the three records one heap update
// moves to the log tail, per record. The tail is forced outside the
// timed region so it does not grow without bound.
func timeAppend(dir string, iters int) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	log, err := wal.OpenLogSet(dir, pageSize, 1)
	if err != nil {
		return 0, err
	}
	defer log.Close()
	const chunk = 1000
	undo := make([]byte, 10)
	var per []float64
	for b := 0; b < layerBatches; b++ {
		var spent time.Duration
		for done := 0; done < iters; done += chunk {
			t0 := time.Now()
			for i := 0; i < chunk; i++ {
				key := wal.ObjectKey(done + i)
				err := log.Append(
					&wal.Record{Kind: wal.KindOpBegin, Txn: 1, Level: 1, Key: key},
					&wal.Record{Kind: wal.KindPhysRedo, Txn: 1, Addr: mem.Addr(8 * (done + i)), Data: undo[:8]},
					&wal.Record{Kind: wal.KindOpCommit, Txn: 1, Level: 1, Key: key,
						Undo: wal.LogicalUndo{Op: 1, Key: key, Args: undo}},
				)
				if err != nil {
					return 0, err
				}
			}
			spent += time.Since(t0)
			if err := log.Flush(); err != nil {
				return 0, err
			}
		}
		n := (iters + chunk - 1) / chunk * chunk
		per = append(per, float64(spent)/float64(3*n))
	}
	return median(per), nil
}

// timeHashidx times Index.Insert and Index.Lookup on an index shaped like
// one kv_wire shard's.
func timeHashidx(dir string, sz sizing) (lookupNS, insertNS float64, err error) {
	keys := sz.kvAccounts + sz.kvTellers + sz.kvBranches + sz.kvHistory
	cfg := core.Config{Dir: dir, ArenaSize: 4 * keys * 24 * 2}
	cfg.Protect.Kind = protect.KindPrecheck
	db, err := core.Open(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer db.Crash()
	cat, err := hashidx.Open(db)
	if err != nil {
		return 0, 0, err
	}
	idx, err := cat.CreateIndex("bench", 2*keys)
	if err != nil {
		return 0, 0, err
	}
	// each runs fn for every key inside transactions of loadBatch calls
	// and returns the mean cost of one call.
	each := func(fn func(txn *core.Txn, key uint64) error) (float64, error) {
		var spent time.Duration
		for lo := 0; lo < keys; lo += loadBatch {
			txn, err := db.Begin()
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for k := lo; k < lo+loadBatch && k < keys; k++ {
				if err := fn(txn, uint64(k)*2654435761); err != nil {
					txn.Abort()
					return 0, err
				}
			}
			spent += time.Since(t0)
			if err := txn.Commit(); err != nil {
				return 0, err
			}
		}
		return float64(spent) / float64(keys), nil
	}
	insertNS, err = each(func(txn *core.Txn, key uint64) error {
		return idx.Insert(txn, key, heap.RID{Table: 1, Slot: uint32(key)})
	})
	if err != nil {
		return 0, 0, err
	}
	lookupNS, err = each(func(txn *core.Txn, key uint64) error {
		_, err := idx.Lookup(txn, key)
		return err
	})
	return lookupNS, insertNS, err
}
