package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/protect"
	"repro/internal/region"
	"repro/internal/wal"
)

// TestAuditReportsWildWriteInAnyRegion damages each protection region in
// turn and requires DB.Audit to report exactly that region — stored and
// actual codeword included — under every codeword scheme, with the scan
// pool at one and two workers, while updaters run through the prescribed
// interface. The audit loop is shared by the schemes and chunked across
// workers; neither may change which regions it looks at or what it holds
// while looking.
func TestAuditReportsWildWriteInAnyRegion(t *testing.T) {
	const (
		arenaSize  = 1 << 14
		pageSize   = 4096
		regionSize = 256
	)
	kinds := []protect.Kind{protect.KindDataCW, protect.KindPrecheck, protect.KindReadLog,
		protect.KindCWReadLog, protect.KindDeferredCW}
	for _, kind := range kinds {
		for _, workers := range []int{1, 2} {
			kind, workers := kind, workers
			t.Run(fmt.Sprintf("%s/w%d", kind, workers), func(t *testing.T) {
				t.Parallel()
				db, err := Open(Config{Dir: t.TempDir(), ArenaSize: arenaSize, PageSize: pageSize, Workers: workers,
					// Healing would repair the single damaged word in place.
					Protect: protect.Config{Kind: kind, RegionSize: regionSize, DisableHeal: true}})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				arena := db.Internals().Arena.Bytes()
				// The updaters own one page, the damage visits every region of
				// the others; then they swap, so every region is covered and no
				// unlatched test write shares a region with a latched update.
				for _, updPage := range []int{arenaSize/pageSize - 1, 0} {
					stop := make(chan struct{})
					var wg sync.WaitGroup
					for g := 0; g < 2; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							auditUpdater(t, db, stop, mem.Addr(updPage*pageSize+g*pageSize/2), pageSize/2, int64(g))
						}(g)
					}
					for r := 0; r < arenaSize/regionSize; r++ {
						if r*regionSize/pageSize == updPage {
							continue
						}
						at := r*regionSize + (r*37)%regionSize
						arena[at] ^= 0x5A
						want := region.Mismatch{Region: r, Start: mem.Addr(r * regionSize), Len: regionSize,
							Actual: region.Compute(arena[r*regionSize : (r+1)*regionSize])}
						var ce *CorruptionError
						if err := db.Audit(); !errors.As(err, &ce) {
							t.Fatalf("region %d: audit missed the wild write: %v", r, err)
						}
						if len(ce.Mismatches) != 1 {
							t.Fatalf("region %d: audit reported %v, want one mismatch", r, ce.Mismatches)
						}
						got := ce.Mismatches[0]
						if got.Stored == got.Actual {
							t.Fatalf("region %d: mismatch with equal codewords: %v", r, got)
						}
						got.Stored = 0
						if got != want {
							t.Fatalf("region %d: audit reported %v, want %v", r, got, want)
						}
						arena[at] ^= 0x5A
					}
					// Several regions at once come back in ascending order.
					damaged := []int{}
					for r := 1; r < arenaSize/regionSize; r += 5 {
						if r*regionSize/pageSize != updPage {
							damaged = append(damaged, r)
							arena[r*regionSize+9] ^= 0xFF
						}
					}
					var ce *CorruptionError
					if err := db.Audit(); !errors.As(err, &ce) || len(ce.Mismatches) != len(damaged) {
						t.Fatalf("audit of %d damaged regions: %v", len(damaged), err)
					}
					for i, r := range damaged {
						if ce.Mismatches[i].Region != r {
							t.Fatalf("mismatch %d is region %d, want %d (ascending)", i, ce.Mismatches[i].Region, r)
						}
						arena[r*regionSize+9] ^= 0xFF
					}
					close(stop)
					wg.Wait()
					if err := db.Audit(); err != nil {
						t.Fatalf("audit after the damage was reverted: %v", err)
					}
				}
			})
		}
	}
}

// auditUpdater commits small transactions over [base, base+span) until
// stop closes.
func auditUpdater(t *testing.T, db *DB, stop <-chan struct{}, base mem.Addr, span int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for {
		select {
		case <-stop:
			return
		default:
		}
		txn, err := db.Begin()
		if err != nil {
			t.Error(err)
			return
		}
		n := 1 + rng.Intn(300)
		addr := base + mem.Addr(rng.Intn(span-n))
		data := make([]byte, n)
		rng.Read(data)
		key := wal.ObjectKey(base)
		if err := txn.BeginOp(1, key); err != nil {
			t.Error(err)
			return
		}
		u, err := txn.BeginUpdate(addr, n)
		if err != nil {
			t.Error(err)
			return
		}
		old := append([]byte(nil), u.Bytes()...)
		copy(u.Bytes(), data)
		if err := u.End(); err != nil {
			t.Error(err)
			return
		}
		if err := txn.CommitOp(1, key, wal.LogicalUndo{Op: testUndoOp, Key: key, Args: encodeTestUndo(addr, old)}); err != nil {
			t.Error(err)
			return
		}
		if err := txn.Commit(); err != nil {
			t.Error(err)
			return
		}
	}
}
