package region

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// TestKernelFoldMatchesGeneric cross-checks the word-at-a-time Fold
// against the retained byte-at-a-time reference for every phase and every
// length around the kernel's unroll boundaries, then property-checks
// random inputs.
func TestKernelFoldMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for length := 0; length <= 136; length++ {
		data := make([]byte, length)
		rng.Read(data)
		for phase := 0; phase < 8; phase++ {
			cw := Codeword(rng.Uint64())
			if got, want := Fold(cw, data, phase), foldGeneric(cw, data, phase); got != want {
				t.Fatalf("len %d phase %d: fast %016x generic %016x", length, phase, uint64(got), uint64(want))
			}
		}
	}
	f := func(cw uint64, data []byte, phase uint8) bool {
		p := int(phase % 8)
		return Fold(Codeword(cw), data, p) == foldGeneric(Codeword(cw), data, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKernelComputeMatchesGeneric cross-checks Compute against the
// reference, including non-multiple-of-8 tails (which real regions never
// have but the kernel still handles).
func TestKernelComputeMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for length := 0; length <= 136; length++ {
		data := make([]byte, length)
		rng.Read(data)
		if got, want := Compute(data), computeGeneric(data); got != want {
			t.Fatalf("len %d: fast %016x generic %016x", length, uint64(got), uint64(want))
		}
	}
	f := func(data []byte) bool { return Compute(data) == computeGeneric(data) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKernelFoldDeltaMatchesGeneric checks the fused old⊕new delta fold
// against building the delta and folding it with the reference.
func TestKernelFoldDeltaMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for length := 0; length <= 136; length++ {
		old := make([]byte, length)
		new := make([]byte, length)
		rng.Read(old)
		rng.Read(new)
		delta := make([]byte, length)
		for i := range old {
			delta[i] = old[i] ^ new[i]
		}
		for phase := 0; phase < 8; phase++ {
			cw := Codeword(rng.Uint64())
			if got, want := FoldDelta(cw, old, new, phase), foldGeneric(cw, delta, phase); got != want {
				t.Fatalf("len %d phase %d: fused %016x generic %016x", length, phase, uint64(got), uint64(want))
			}
		}
	}
}

func TestFoldDeltaLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FoldDelta accepted images of different lengths")
		}
	}()
	FoldDelta(0, []byte{1}, []byte{1, 2}, 0)
}

// TestDifferentialRandomUpdates is the differential property test of the
// whole maintenance path: random unaligned multi-region updates applied
// through the fast kernels (both the immediate ApplyUpdate path and the
// deferred UpdateDeltas path) must leave every stored codeword identical
// to the byte-at-a-time reference recomputed from the final image.
func TestDifferentialRandomUpdates(t *testing.T) {
	const arenaSize = 1 << 15
	for _, regionSize := range []int{64, 512, 8192} {
		a, err := mem.NewArena(arenaSize, 4096, mem.WithHeapBacking())
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		immediate, err := NewTable(arenaSize, regionSize)
		if err != nil {
			t.Fatal(err)
		}
		deferred, err := NewTable(arenaSize, regionSize)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(regionSize)))
		rng.Read(a.Bytes())
		immediate.RecomputeAll(a)
		deferred.RecomputeAll(a)

		var queued []Delta
		for iter := 0; iter < 1500; iter++ {
			// Lengths biased to straddle region boundaries and exercise
			// every phase; addresses deliberately unaligned.
			n := 1 + rng.Intn(3*regionSize/2)
			if n > arenaSize/2 {
				n = arenaSize / 2
			}
			addr := mem.Addr(rng.Intn(arenaSize - n))
			oldData := append([]byte(nil), a.Slice(addr, n)...)
			newData := make([]byte, n)
			rng.Read(newData)
			copy(a.Slice(addr, n), newData)
			if err := immediate.ApplyUpdate(addr, oldData, newData); err != nil {
				t.Fatal(err)
			}
			queued, err = deferred.UpdateDeltas(queued, addr, oldData, newData)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range queued {
			deferred.XorDelta(d)
		}

		for r := 0; r < immediate.NumRegions(); r++ {
			ref := computeGeneric(a.Slice(immediate.RegionStart(r), regionSize))
			if got := immediate.Codeword(r); got != ref {
				t.Fatalf("region size %d, region %d: ApplyUpdate %016x, reference %016x",
					regionSize, r, uint64(got), uint64(ref))
			}
			if got := deferred.Codeword(r); got != ref {
				t.Fatalf("region size %d, region %d: UpdateDeltas %016x, reference %016x",
					regionSize, r, uint64(got), uint64(ref))
			}
		}
	}
}
