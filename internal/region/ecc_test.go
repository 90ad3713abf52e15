package region

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// eccArena builds a heap-backed arena of size bytes filled with seeded
// random data and an ECC-enabled table over it with the given region
// size, codewords and S1 words derived from the contents.
func eccArena(t *testing.T, size, regionSize int, seed int64) (*mem.Arena, *Table) {
	t.Helper()
	a, err := mem.NewArena(size, 4096, mem.WithHeapBacking())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	rand.New(rand.NewSource(seed)).Read(a.Bytes())
	tab, err := NewTable(size, regionSize)
	if err != nil {
		t.Fatal(err)
	}
	tab.EnableECC()
	tab.RecomputeAll(a)
	return a, tab
}

// smashWord XORs delta into the aligned word at region-relative index w
// of region r, bypassing maintenance — a modeled wild write.
func smashWord(a *mem.Arena, tab *Table, r, w int, delta uint64) {
	buf := a.Slice(tab.RegionStart(r)+mem.Addr(w*8), 8)
	binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)^delta)
}

// gfMul is the specification of GF(2⁶⁴) multiplication modulo
// p = x⁶⁴+x⁴+x³+x+1: shift-and-add over b's bits, reducing as a's x⁶⁴
// term appears.
func gfMul(a, b uint64) uint64 {
	var r uint64
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			r ^= a
		}
		carry := a >> 63
		a <<= 1
		if carry != 0 {
			a ^= 0x1B
		}
	}
	return r
}

// xPow is xⁱ mod p by repeated gfMul.
func xPow(i int) uint64 {
	v := uint64(1)
	for ; i > 0; i-- {
		v = gfMul(v, 2)
	}
	return v
}

// foldDeltaECCRef is the byte-at-a-time specification of foldDeltaECC:
// the byte at data offset j sits at region-relative byte offset
// rel*8+phase+j, i.e. in word (rel*8+phase+j)/8 at lane (rel*8+phase+j)
// mod 8, and contributes its lane-shifted delta to S0 and xʷ times it to
// S1.
func foldDeltaECCRef(rel int, old, new []byte, phase int) (Codeword, uint64) {
	var cw, s1 uint64
	for j := range old {
		off := rel*8 + (phase & 7) + j
		d := uint64(old[j]^new[j]) << (uint(off&7) * 8)
		cw ^= d
		s1 ^= gfMul(xPow(off>>3), d)
	}
	return Codeword(cw), s1
}

// TestFoldDeltaPlanesMatchesRef cross-checks the fused S0+S1 delta kernel
// against the byte-at-a-time reference, and its codeword result against
// the rotate-trick delta kernel, for every phase, lengths 0–136 and
// region-relative starts on both sides of the x⁶⁴ steps.
func TestFoldDeltaPlanesMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for length := 0; length <= 136; length++ {
		old := make([]byte, length)
		new := make([]byte, length)
		rng.Read(old)
		rng.Read(new)
		for phase := 0; phase < 8; phase++ {
			for _, rel := range []int{0, 1, 5, 63, 500} {
				gotCW, gotS1 := foldDeltaECC(rel, old, new, phase)
				wantCW, wantS1 := foldDeltaECCRef(rel, old, new, phase)
				if gotCW != wantCW || gotS1 != wantS1 {
					t.Fatalf("len %d phase %d rel %d: (%016x, %016x), ref (%016x, %016x)",
						length, phase, rel, uint64(gotCW), gotS1, uint64(wantCW), wantS1)
				}
				if kernCW := foldDeltaKernel(0, old, new, phase); gotCW != kernCW {
					t.Fatalf("len %d phase %d: cw %016x, delta kernel %016x", length, phase, uint64(gotCW), uint64(kernCW))
				}
			}
		}
	}
}

// TestMulXPowMatchesRef checks the shift-and-reduce multiplication by xⁿ
// against repeated reference multiplication, across the x⁶⁴ steps.
func TestMulXPowMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n < 1100; n++ {
		v := rng.Uint64()
		if got, want := mulXPow(v, n), gfMul(v, xPow(n)); got != want {
			t.Fatalf("n %d: %016x, ref %016x", n, got, want)
		}
	}
}

// TestComputeECCMatchesCompute checks the one-pass S0+S1 computation
// against Compute and against the defining sum S1 = ⊕ xⁱ·dᵢ.
func TestComputeECCMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{8, 64, 512, 8192} {
		data := make([]byte, size)
		rng.Read(data)
		cw, s1 := computeECC(data)
		if cw != Compute(data) {
			t.Fatalf("size %d: computeECC cw %016x Compute %016x", size, uint64(cw), uint64(Compute(data)))
		}
		var want uint64
		for w := 0; w*8 < size; w++ {
			want ^= gfMul(xPow(w), binary.LittleEndian.Uint64(data[w*8:]))
		}
		if s1 != want {
			t.Fatalf("size %d: S1 %016x, want %016x", size, s1, want)
		}
	}
}

// TestApplyUpdateMaintainsPlanes drives random unaligned updates through
// ApplyUpdate on an ECC table and checks after each that every touched
// region's stored S1 equals S1 recomputed from the image — the fused
// hot-path maintenance agrees with the from-scratch definition.
func TestApplyUpdateMaintainsPlanes(t *testing.T) {
	const size = 1 << 14
	for _, regionSize := range []int{64, 512, 4096} {
		a, tab := eccArena(t, size, regionSize, int64(regionSize))
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 200; i++ {
			n := 1 + rng.Intn(3*regionSize)
			addr := mem.Addr(rng.Intn(size - n))
			old := append([]byte(nil), a.Slice(addr, n)...)
			new := make([]byte, n)
			rng.Read(new)
			copy(a.Slice(addr, n), new)
			if err := tab.ApplyUpdate(addr, old, new); err != nil {
				t.Fatal(err)
			}
			first, last := tab.RegionRange(addr, n)
			for r := first; r <= last; r++ {
				if _, want := computeECC(a.Slice(tab.RegionStart(r), regionSize)); tab.s1[r] != want {
					t.Fatalf("region %d S1 after update %d: stored %016x image %016x", r, i, tab.s1[r], want)
				}
				if !tab.VerifyRegion(a, r) {
					t.Fatalf("region %d codeword stale after update %d", r, i)
				}
			}
		}
	}
}

// TestRepairSingleWord checks the tentpole property across region sizes:
// any single-word wild write — from one flipped bit to a fully smashed
// word — is located and repaired in place, byte-identical to the
// pre-corruption image.
func TestRepairSingleWord(t *testing.T) {
	const size = 1 << 14
	for _, regionSize := range []int{8, 64, 512, 8192} {
		rng := rand.New(rand.NewSource(int64(regionSize)))
		a, tab := eccArena(t, size, regionSize, 99)
		shadow := append([]byte(nil), a.Bytes()...)
		words := regionSize / 8
		for i := 0; i < 100; i++ {
			r := rng.Intn(tab.NumRegions())
			w := rng.Intn(words)
			var delta uint64
			if i%2 == 0 {
				delta = 1 << uint(rng.Intn(64)) // single bit
			} else {
				for delta == 0 {
					delta = rng.Uint64() // arbitrary word damage
				}
			}
			smashWord(a, tab, r, w, delta)

			diag := tab.Diagnose(a, r)
			if diag.Verdict != VerdictRepairable || diag.WordIndex != w {
				t.Fatalf("region %dB r=%d w=%d: diagnose %v (word %d)", regionSize, r, w, diag.Verdict, diag.WordIndex)
			}
			res := tab.Repair(a, r)
			if res.Verdict != VerdictRepaired || res.WordIndex != w || res.Delta != Codeword(delta) {
				t.Fatalf("region %dB r=%d w=%d: repair %+v", regionSize, r, w, res)
			}
			if got := tab.Diagnose(a, r); got.Verdict != VerdictClean {
				t.Fatalf("region %dB r=%d: post-repair diagnose %v", regionSize, r, got.Verdict)
			}
			if !bytes.Equal(a.Bytes(), shadow) {
				t.Fatalf("region %dB r=%d w=%d: repaired image differs from pre-corruption state", regionSize, r, w)
			}
		}
	}
}

// TestRepairEveryIndex: for W ∈ {1, 8, 64}, damage to every single word
// index with random deltas is located and repaired byte-exact.
func TestRepairEveryIndex(t *testing.T) {
	for _, words := range []int{1, 8, 64} {
		a, tab := eccArena(t, 1<<12, words*8, int64(words))
		shadow := append([]byte(nil), a.Bytes()...)
		rng := rand.New(rand.NewSource(int64(words) + 1))
		for w := 0; w < words; w++ {
			for trial := 0; trial < 8; trial++ {
				delta := rng.Uint64() | 1<<uint(rng.Intn(64))
				smashWord(a, tab, 1, w, delta)
				if res := tab.Repair(a, 1); res.Verdict != VerdictRepaired || res.WordIndex != w {
					t.Fatalf("W=%d word %d delta %016x: %v", words, w, delta, res)
				}
				if !bytes.Equal(a.Bytes(), shadow) {
					t.Fatalf("W=%d word %d: repair not byte-exact", words, w)
				}
			}
		}
	}
}

// TestEqualDeltaNeverRepaired is hole (i) and hole (ii) of the locator
// planes, closed: for W ∈ {1, 8, 64}, every pair and every triple of
// word indices hit with one equal delta is neither repaired nor diagnosed
// clean, and the bytes stay as the damage left them. The proof: the
// syndromes are S0 = (k mod 2)·d and S1 = (Σ xⁱ)·d, and no nonzero
// polynomial of degree < 64 is divisible by p, so S1 is never 0 and never
// xᵐ·S0.
func TestEqualDeltaNeverRepaired(t *testing.T) {
	for _, words := range []int{1, 8, 64} {
		a, tab := eccArena(t, 1<<12, words*8, int64(words))
		rng := rand.New(rand.NewSource(int64(words) + 2))
		check := func(idx ...int) {
			d := rng.Uint64() | 1
			for _, w := range idx {
				smashWord(a, tab, 2, w, d)
			}
			damaged := append([]byte(nil), a.Slice(tab.RegionStart(2), words*8)...)
			if res := tab.Repair(a, 2); res.Verdict != VerdictUnrepairable {
				t.Fatalf("W=%d equal delta at %v: %v, want unrepairable", words, idx, res)
			}
			if !bytes.Equal(a.Slice(tab.RegionStart(2), words*8), damaged) {
				t.Fatalf("W=%d equal delta at %v: region mutated", words, idx)
			}
			for _, w := range idx {
				smashWord(a, tab, 2, w, d)
			}
		}
		for i := 0; i < words; i++ {
			for j := i + 1; j < words; j++ {
				check(i, j)
				for k := j + 1; k < words; k++ {
					check(i, j, k)
				}
			}
		}
	}
}

// TestEqualDeltaRunsAt8KiB: at W = 1024 every equal-delta run — contiguous
// or at any stride from 1 to 64 words, of any length from 2 — is never
// repaired. The syndromes of a run with delta d are (k mod 2)·d and
// (Σ xⁱ)·d, and the verdict does not depend on d, so the exhaustive
// sweep classifies d = 1; a sample of runs then goes through Repair with
// random deltas.
func TestEqualDeltaRunsAt8KiB(t *testing.T) {
	const words = 1024
	pow := make([]uint64, words)
	for i, v := 0, uint64(1); i < words; i, v = i+1, mulX(v) {
		pow[i] = v
	}
	runs := 0
	for stride := 1; stride <= 64; stride++ {
		for start := 0; start+stride < words; start++ {
			var s0 Codeword
			var s1 uint64
			for i := start; i < words; i += stride {
				s0 ^= 1
				s1 ^= pow[i]
				if i == start {
					continue
				}
				runs++
				if v, m := classify(s0, s1, words); v != VerdictUnrepairable {
					t.Fatalf("stride %d run %d..%d: %v at word %d", stride, start, i, v, m)
				}
			}
		}
	}
	t.Logf("%d runs classified unrepairable", runs)

	a, tab := eccArena(t, 1<<15, 8192, 5)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		stride := 1 + rng.Intn(64)
		start := rng.Intn(words - stride)
		n := 2 + rng.Intn((words-1-start)/stride)
		d := rng.Uint64() | 1
		for i := 0; i < n; i++ {
			smashWord(a, tab, 3, start+i*stride, d)
		}
		damaged := append([]byte(nil), a.Slice(tab.RegionStart(3), 8192)...)
		if res := tab.Repair(a, 3); res.Verdict != VerdictUnrepairable {
			t.Fatalf("stride %d start %d n %d: %v", stride, start, n, res)
		}
		if !bytes.Equal(a.Slice(tab.RegionStart(3), 8192), damaged) {
			t.Fatal("unrepairable region mutated")
		}
		for i := 0; i < n; i++ {
			smashWord(a, tab, 3, start+i*stride, d)
		}
	}
}

// TestWeightFivePatternMislocatesAt8KiB pins the documented limit at
// 8 KiB: p·(1+x) = x⁶⁵+x⁶⁴+x⁵+x³+x²+1, so one delta in words
// {0, 2, 3, 5, 65} has S1 = x⁶⁴·S0 and locates word 64. The "repair"
// completes a codeword of the code and verifies clean — a miscorrection no
// syndrome can see, needing five aligned equal deltas across 66 words.
func TestWeightFivePatternMislocatesAt8KiB(t *testing.T) {
	a, tab := eccArena(t, 1<<14, 8192, 8)
	const d = 0xC0FFEE
	for _, w := range []int{0, 2, 3, 5, 65} {
		smashWord(a, tab, 1, w, d)
	}
	res := tab.Repair(a, 1)
	if res.Verdict != VerdictRepaired || res.WordIndex != 64 {
		t.Fatalf("repair = %v, want the documented miscorrection at word 64", res)
	}
}

// TestRepairDoubleWordEscalates checks the first escalation rung: two
// damaged words with distinct nonzero deltas are declared unrepairable
// and left untouched for delete-transaction recovery (a random pair
// mislocates with probability about W·2⁻⁶⁴).
func TestRepairDoubleWordEscalates(t *testing.T) {
	const size = 1 << 13
	rng := rand.New(rand.NewSource(21))
	a, tab := eccArena(t, size, 512, 7)
	for i := 0; i < 100; i++ {
		r := rng.Intn(tab.NumRegions())
		w1 := rng.Intn(64)
		w2 := (w1 + 1 + rng.Intn(63)) % 64
		d1, d2 := rng.Uint64()|1, rng.Uint64()|2
		if d1 == d2 {
			d2 ^= 4
		}
		smashWord(a, tab, r, w1, d1)
		smashWord(a, tab, r, w2, d2)
		damaged := append([]byte(nil), a.Slice(tab.RegionStart(r), 512)...)

		if diag := tab.Diagnose(a, r); diag.Verdict != VerdictUnrepairable {
			t.Fatalf("r=%d w=%d,%d: diagnose %v, want unrepairable", r, w1, w2, diag.Verdict)
		}
		if res := tab.Repair(a, r); res.Verdict != VerdictUnrepairable {
			t.Fatalf("r=%d: repair %v, want unrepairable", r, res.Verdict)
		}
		if !bytes.Equal(a.Slice(tab.RegionStart(r), 512), damaged) {
			t.Fatalf("r=%d: unrepairable region was mutated", r)
		}
		// Undo for the next iteration.
		smashWord(a, tab, r, w1, d1)
		smashWord(a, tab, r, w2, d2)
	}
}

// TestRepairParityStale: damage to the stored S1 alone, with the data
// intact, gives S0 = 0 and S1 ≠ 0 — the shape even-count equal-delta data
// damage also produces — so it escalates: Repair changes nothing, and
// only a recompute from a known-good image (restart recovery's) clears
// it.
func TestRepairParityStale(t *testing.T) {
	const size = 1 << 13
	a, tab := eccArena(t, size, 512, 31)
	shadow := append([]byte(nil), a.Bytes()...)
	if err := tab.CorruptPlane(3, 0, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := tab.CorruptPlane(3, 1, 1); err == nil {
		t.Fatal("CorruptPlane accepted a second ECC word")
	}
	if diag := tab.Diagnose(a, 3); diag.Verdict != VerdictUnrepairable {
		t.Fatalf("diagnose %+v, want unrepairable", diag)
	}
	if res := tab.Repair(a, 3); res.Verdict != VerdictUnrepairable {
		t.Fatalf("repair %v", res.Verdict)
	}
	if got := tab.Diagnose(a, 3); got.Verdict != VerdictUnrepairable {
		t.Fatalf("second diagnose %v: S1 was rebuilt from the data", got.Verdict)
	}
	if !bytes.Equal(a.Bytes(), shadow) {
		t.Fatal("repair modified the data image")
	}
	tab.RecomputeAll(a)
	if got := tab.Diagnose(a, 3); got.Verdict != VerdictClean {
		t.Fatalf("after recompute %v", got.Verdict)
	}
}

// TestRepairParityPlusDataEscalates checks the combined rung: a damaged
// word plus a damaged S1 exceeds the correction radius.
func TestRepairParityPlusDataEscalates(t *testing.T) {
	const size = 1 << 13
	a, tab := eccArena(t, size, 512, 41)
	smashWord(a, tab, 5, 9, 0xfefefefefefefefe)
	if err := tab.CorruptPlane(5, 0, 1); err != nil {
		t.Fatal(err)
	}
	if diag := tab.Diagnose(a, 5); diag.Verdict != VerdictUnrepairable {
		t.Fatalf("diagnose %v, want unrepairable", diag.Verdict)
	}
	if res := tab.Repair(a, 5); res.Verdict != VerdictUnrepairable {
		t.Fatalf("repair %v, want unrepairable", res.Verdict)
	}
}

// TestXorDeltaCarriesPlanes drives the deferred-maintenance flow:
// UpdateDeltas computes S0+S1 deltas without touching the table, XorDelta
// applies them later, and the region still diagnoses clean (S1 included).
func TestXorDeltaCarriesPlanes(t *testing.T) {
	const size = 1 << 13
	a, tab := eccArena(t, size, 512, 55)
	rng := rand.New(rand.NewSource(56))
	var queued []Delta
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(1024)
		addr := mem.Addr(rng.Intn(size - n))
		old := append([]byte(nil), a.Slice(addr, n)...)
		new := make([]byte, n)
		rng.Read(new)
		copy(a.Slice(addr, n), new)
		var err error
		queued, err = tab.UpdateDeltas(queued, addr, old, new)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range queued {
		tab.XorDelta(d)
	}
	for r := 0; r < tab.NumRegions(); r++ {
		if diag := tab.Diagnose(a, r); diag.Verdict != VerdictClean {
			t.Fatalf("region %d after drain: %v", r, diag.Verdict)
		}
	}
}

// TestDiagnoseWithoutECC reports VerdictUnsupported from a plain table.
func TestDiagnoseWithoutECC(t *testing.T) {
	a, err := mem.NewArena(1<<12, 4096, mem.WithHeapBacking())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	tab, err := NewTable(1<<12, 512)
	if err != nil {
		t.Fatal(err)
	}
	tab.RecomputeAll(a)
	if got := tab.Diagnose(a, 0); got.Verdict != VerdictUnsupported {
		t.Fatalf("diagnose on non-ECC table: %v", got.Verdict)
	}
	if tab.NumPlanes() != 0 || NumPlanesFor(512) != 1 || NumPlanesFor(8) != 0 {
		t.Fatalf("NumPlanes %d, NumPlanesFor(512) %d, NumPlanesFor(8) %d", tab.NumPlanes(), NumPlanesFor(512), NumPlanesFor(8))
	}
}

// TestSetLeavesPlanesStale pins what a raw codeword install does to the
// tier: storing S0 for changed data without maintaining S1 leaves S0 = 0
// and S1 ≠ 0, which diagnoses unrepairable — never clean, never a repair —
// until a recompute.
func TestSetLeavesPlanesStale(t *testing.T) {
	const size = 1 << 13
	a, tab := eccArena(t, size, 512, 77)
	buf := a.Slice(tab.RegionStart(2), 512)
	buf[17] ^= 0x5a
	tab.cws[2] = Compute(buf)
	shadow := append([]byte(nil), buf...)
	if res := tab.Repair(a, 2); res.Verdict != VerdictUnrepairable {
		t.Fatalf("repair %v, want unrepairable", res.Verdict)
	}
	if !bytes.Equal(buf, shadow) {
		t.Fatal("repair rewrote data under a stale S1")
	}
	tab.RecomputeAll(a)
	if got := tab.Diagnose(a, 2); got.Verdict != VerdictClean {
		t.Fatalf("after recompute %v", got.Verdict)
	}
}
