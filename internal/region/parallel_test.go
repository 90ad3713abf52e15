package region

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/latch"
	"repro/internal/mem"
)

func TestPoolRunCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 5, 63, 64, 1000} {
			var sum atomic.Int64
			var calls atomic.Int64
			p.Run(n, 3, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("workers %d n %d: empty chunk [%d,%d)", workers, n, lo, hi)
				}
				calls.Add(1)
				for i := lo; i < hi; i++ {
					sum.Add(int64(i))
				}
			})
			want := int64(n) * int64(n-1) / 2
			if n == 0 {
				want = 0
			}
			if sum.Load() != want {
				t.Fatalf("workers %d n %d: covered sum %d, want %d (%d chunks)",
					workers, n, sum.Load(), want, calls.Load())
			}
		}
	}
}

func TestPoolRunChunkedOrder(t *testing.T) {
	p := NewPool(4)
	const n = 500
	chunks := RunChunked(p, n, 1, func(lo, hi int) []int {
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	})
	var flat []int
	for _, c := range chunks {
		flat = append(flat, c...)
	}
	if len(flat) != n {
		t.Fatalf("got %d items, want %d", len(flat), n)
	}
	for i, v := range flat {
		if v != i {
			t.Fatalf("position %d holds %d: chunk order not ascending", i, v)
		}
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool reports %d workers", p.Workers())
	}
	calls := 0
	p.Run(100, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("nil pool chunked [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("nil pool ran %d chunks", calls)
	}
}

// TestPoolOverlappingScans drives many concurrent Run calls through one
// small pool: the try-acquire + caller-runs policy must complete them all
// without deadlocking on the pool's own capacity.
func TestPoolOverlappingScans(t *testing.T) {
	p := NewPool(2)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				p.Run(64, 1, func(lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 8*50*64 {
		t.Fatalf("covered %d items, want %d", got, 8*50*64)
	}
}

// TestRecomputeAndAuditParallelMatchSerial checks that attaching a pool
// changes neither the recomputed codewords nor the audit verdicts.
func TestRecomputeAndAuditParallelMatchSerial(t *testing.T) {
	const arenaSize = 1 << 20
	a, err := mem.NewArena(arenaSize, 4096, mem.WithHeapBacking())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rand.New(rand.NewSource(11)).Read(a.Bytes())

	serial, _ := NewTable(arenaSize, 512)
	parallel, _ := NewTable(arenaSize, 512)
	parallel.SetPool(NewPool(4))
	serial.RecomputeAll(a)
	parallel.RecomputeAll(a)
	for r := 0; r < serial.NumRegions(); r++ {
		if serial.Codeword(r) != parallel.Codeword(r) {
			t.Fatalf("region %d: serial %016x parallel %016x",
				r, uint64(serial.Codeword(r)), uint64(parallel.Codeword(r)))
		}
	}

	// Corrupt a few regions; parallel audit must report exactly the same
	// mismatches in the same ascending order.
	for _, off := range []int{100, 99_000, 512_001, arenaSize - 5} {
		a.Bytes()[off] ^= 0x5a
	}
	sm := serial.AuditAll(a)
	pm := parallel.AuditAll(a)
	if len(sm) != len(pm) {
		t.Fatalf("serial found %d mismatches, parallel %d", len(sm), len(pm))
	}
	for i := range sm {
		if sm[i] != pm[i] {
			t.Fatalf("mismatch %d differs: serial %v parallel %v", i, sm[i], pm[i])
		}
	}
	if len(sm) != 4 {
		t.Fatalf("expected 4 corrupt regions, audit found %d", len(sm))
	}
}

// TestConcurrentFoldAuditNoTear runs prescribed folds, direct codeword
// reads and audits concurrently, under the Data Codeword latch discipline
// (§3.2): a writer holds the protection latches of the regions it updates
// shared across its whole bracket — the store into the arena and the fold
// — and an auditor takes a region's protection latch exclusive while it
// compares the region with its codeword. Under -race this proves a reader
// can never observe a torn codeword (every access to a region's codeword
// word goes through the same stripe of the codeword latch, Table.latchFor)
// and that the discipline is enough: no audit, region by region against an
// image that keeps changing around it or chunked across the pool with the
// writers held off, ever sees a mismatch.
func TestConcurrentFoldAuditNoTear(t *testing.T) {
	const arenaSize = 1 << 18
	const regionSize = 512
	a, err := mem.NewArena(arenaSize, 4096, mem.WithHeapBacking())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rand.New(rand.NewSource(13)).Read(a.Bytes())
	tab, err := NewTable(arenaSize, regionSize)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetPool(NewPool(4))
	tab.RecomputeAll(a)
	// One stripe per region: ranges are then taken in ascending order by
	// everyone, the all-stripes sweep below included.
	prot := latch.NewStriped(tab.NumRegions())

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: each owns a disjoint slice of the arena and repeatedly
	// applies an update and then its inverse, through the prescribed
	// ApplyUpdate path, including region-straddling unaligned spans.
	span := arenaSize / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			base := w * span
			update := func(addr mem.Addr, newData []byte) []byte {
				first, last := tab.RegionRange(addr, len(newData))
				g := prot.AcquireRange(uint64(first), uint64(last), false)
				defer g.Release()
				oldData := append([]byte(nil), a.Slice(addr, len(newData))...)
				copy(a.Slice(addr, len(newData)), newData)
				if err := tab.ApplyUpdate(addr, oldData, newData); err != nil {
					t.Error(err)
				}
				return oldData
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + rng.Intn(3*regionSize/2)
				addr := mem.Addr(base + rng.Intn(span-n))
				newData := make([]byte, n)
				rng.Read(newData)
				update(addr, update(addr, newData))
			}
		}(w)
	}
	// Region-by-region auditors, through the schemes' own audit loop: each
	// region's latch is held only while that region is compared, so the
	// image changes between their regions.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				addr := mem.Addr(i * 3 * regionSize % (arenaSize / 2))
				if bad := tab.AuditRangeLatched(a, addr, arenaSize/2, prot, nil); len(bad) != 0 {
					t.Errorf("audit under the protection latch saw %v", bad[0])
					return
				}
			}
		}(g)
	}
	// Direct codeword readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				_ = tab.Codeword(i % tab.NumRegions())
			}
		}
	}()
	// Pool-chunked sweeps, with every stripe held: the image changes
	// between sweeps, not under one.
	for iter := 0; iter < 50; iter++ {
		g := prot.AcquireRange(0, uint64(tab.NumRegions()-1), true)
		bad := tab.AuditRange(a, mem.Addr(iter*regionSize%arenaSize), arenaSize/4)
		g.Release()
		if len(bad) != 0 {
			t.Fatalf("chunked audit with the writers held off saw %v", bad[0])
		}
	}
	close(stop)
	wg.Wait()

	if bad := tab.AuditAll(a); len(bad) != 0 {
		t.Fatalf("codewords diverged after concurrent folds: %v", bad[0])
	}
}
