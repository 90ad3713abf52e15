// Codeword kernels: the byte-folding primitives behind Fold, Compute and
// delta maintenance, in two implementations.
//
// The fast kernels work a 64-bit word at a time. A codeword is the XOR of
// the region's little-endian 64-bit words, so for phase-0 data the kernel
// is just an unrolled XOR of 8-byte loads (encoding/binary little-endian
// loads compile to single MOVs on little-endian hardware and remain
// correct, if slower, on big-endian hardware). Arbitrary phase reduces to
// the aligned case by one rotation: a byte at data offset j of an update
// whose first byte sits at byte lane p lands in lane (p+j) mod 8, i.e.
// its contribution is the phase-0 contribution rotated left by 8·p bits —
// and since rotation distributes over XOR, the whole fold at phase p is
//
//	Fold(data, p) = RotateLeft64(Fold(data, 0), 8*p).
//
// The kernels therefore accumulate aligned words, rotate once, and handle
// the sub-word tail with the scalar loop. There is no head fixup: data
// offsets need no memory alignment for the loads, and the tail starts at
// a multiple of 8, so its first byte is again at lane p.
//
// The byte-at-a-time reference kernels (foldGeneric, computeGeneric) are
// retained verbatim as the specification: the differential tests in
// kernel_test.go cross-check the fast kernels against them for every
// phase and length, and the microbenchmarks in bench_test.go report the
// speedup.
package region

import (
	"encoding/binary"
	"math/bits"
)

// foldGeneric is the byte-at-a-time reference fold: XOR data into cw
// starting at byte lane phase (0..7). Retained as the specification for
// the word-at-a-time kernels.
func foldGeneric(cw Codeword, data []byte, phase int) Codeword {
	lane := uint(phase&7) * 8
	for _, b := range data {
		cw ^= Codeword(uint64(b) << lane)
		lane += 8
		if lane == 64 {
			lane = 0
		}
	}
	return cw
}

// computeGeneric is the byte-at-a-time reference for Compute.
func computeGeneric(data []byte) Codeword {
	return foldGeneric(0, data, 0)
}

// foldWords XORs the 8-byte little-endian words of data[0:8*(len/8)] and
// reports the accumulated word and the index where the sub-word tail
// begins. The main loop is unrolled 4x: the four loads are independent,
// so the XOR chain is the only serial dependency.
func foldWords(data []byte) (acc uint64, tail int) {
	i := 0
	for ; i+32 <= len(data); i += 32 {
		acc ^= binary.LittleEndian.Uint64(data[i:]) ^
			binary.LittleEndian.Uint64(data[i+8:]) ^
			binary.LittleEndian.Uint64(data[i+16:]) ^
			binary.LittleEndian.Uint64(data[i+24:])
	}
	for ; i+8 <= len(data); i += 8 {
		acc ^= binary.LittleEndian.Uint64(data[i:])
	}
	return acc, i
}

// foldKernel is the word-at-a-time fold of data at the given phase.
func foldKernel(cw Codeword, data []byte, phase int) Codeword {
	acc, i := foldWords(data)
	cw ^= Codeword(bits.RotateLeft64(acc, (phase&7)*8))
	// Sub-word tail: i is a multiple of 8, so the tail starts at lane
	// phase again.
	if i < len(data) {
		cw = foldGeneric(cw, data[i:], phase)
	}
	return cw
}

// foldDeltaKernel folds the old⊕new delta of an in-place update at the
// given phase into cw without materializing the delta bytes: old and new
// words are loaded pairwise and XORed in registers. len(old) must equal
// len(new).
func foldDeltaKernel(cw Codeword, old, new []byte, phase int) Codeword {
	var acc uint64
	i := 0
	for ; i+32 <= len(old); i += 32 {
		acc ^= (binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(new[i:])) ^
			(binary.LittleEndian.Uint64(old[i+8:]) ^ binary.LittleEndian.Uint64(new[i+8:])) ^
			(binary.LittleEndian.Uint64(old[i+16:]) ^ binary.LittleEndian.Uint64(new[i+16:])) ^
			(binary.LittleEndian.Uint64(old[i+24:]) ^ binary.LittleEndian.Uint64(new[i+24:]))
	}
	for ; i+8 <= len(old); i += 8 {
		acc ^= binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(new[i:])
	}
	cw ^= Codeword(bits.RotateLeft64(acc, (phase&7)*8))
	lane := uint(phase&7) * 8
	for ; i < len(old); i++ {
		cw ^= Codeword(uint64(old[i]^new[i]) << lane)
		lane += 8
		if lane == 64 {
			lane = 0
		}
	}
	return cw
}

// FoldDelta folds the old⊕new delta of an update whose first byte sits at
// byte lane phase into cw. It is the fused form of building the delta
// slice and calling Fold, used by schemes that reconstruct pre-update
// codewords (CW Read Logging) and by delta maintenance.
func FoldDelta(cw Codeword, old, new []byte, phase int) Codeword {
	if len(old) != len(new) {
		panic("region: FoldDelta images differ in length")
	}
	return foldDeltaKernel(cw, old, new, phase)
}

// --- ECC syndrome kernels -----------------------------------------------------
//
// The ECC tier keeps one word per region beside the codeword S0 = ⊕ dᵢ:
// S1 = ⊕ xⁱ·dᵢ over GF(2⁶⁴), the Reed–Solomon syndrome at word scale. A
// word is a polynomial over GF(2) — bit k is the coefficient of xᵏ — and
// products are reduced modulo the primitive p = x⁶⁴+x⁴+x³+x+1, so
// x⁶⁴ ≡ x⁴+x³+x+1 (eccPoly) and xᵐ is distinct for every m < 2⁶⁴−1.
// Multiplying by x is a shift and a masked XOR, so S1 costs Horner's rule
// in the same pass as S0 (see ecc.go for what the syndromes locate).

// eccPoly is p without its x⁶⁴ term: the value x⁶⁴ reduces to.
const eccPoly = 0x1B

// mulX returns v·x mod p.
func mulX(v uint64) uint64 {
	return v<<1 ^ uint64(int64(v)>>63)&eccPoly
}

// reduce returns lo ⊕ hi·x⁶⁴ mod p. hi·(x⁴+x³+x+1) spills at most four
// bits past bit 63, and those fold back once more without spilling.
func reduce(hi, lo uint64) uint64 {
	t := hi ^ hi<<1 ^ hi<<3 ^ hi<<4
	o := hi>>63 ^ hi>>61 ^ hi>>60
	return lo ^ t ^ o ^ o<<1 ^ o<<3 ^ o<<4
}

// mulXPow returns v·xⁿ mod p: one x⁶⁴ step per whole 64 of n, then a
// shift whose spill reduce folds back (for n = 0 the spill v>>64 is 0).
func mulXPow(v uint64, n int) uint64 {
	for ; n >= 64; n -= 64 {
		v = reduce(v, 0)
	}
	return reduce(v>>uint(64-n), v<<uint(n))
}

// computeECC returns a full region image's codeword S0 and syndrome word
// S1 in one pass. Horner's rule runs from the last word down, so word i
// ends up multiplied by xⁱ. The step is mulX written out with d folded in
// beside the shift, so the chain from one S1 to the next is three
// instructions (sign spread, mask, XOR).
func computeECC(data []byte) (Codeword, uint64) {
	var cw, s1 uint64
	for i := len(data) - 8; i >= 0; i -= 8 {
		d := binary.LittleEndian.Uint64(data[i:])
		cw ^= d
		s1 = s1<<1 ^ d ^ uint64(int64(s1)>>63)&eccPoly
	}
	return Codeword(cw), s1
}

// foldDeltaECC returns the S0 and S1 deltas of an in-place update of old
// to new whose first byte sits at byte lane phase (0..7) of
// region-relative word rel. Each touched word's delta is assembled
// lane-aligned, so S0 needs no rotation; Horner's rule runs over the
// touched words from the last down and a single multiplication by x^rel
// places them. len(old) must equal len(new).
func foldDeltaECC(rel int, old, new []byte, phase int) (Codeword, uint64) {
	phase &= 7
	head := 0 // bytes of a partial first word, lanes phase..7
	if phase != 0 {
		head = min(8-phase, len(old))
	}
	tail := head + (len(old)-head)&^7 // a partial last word starts here, at lane 0
	var cw, s1 uint64
	if tail < len(old) {
		cw = laneDelta(old[tail:], new[tail:])
		s1 = cw
	}
	for i := tail - 8; i >= head; i -= 8 {
		d := binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(new[i:])
		cw ^= d
		s1 = mulX(s1) ^ d
	}
	if head > 0 {
		d := laneDelta(old[:head], new[:head]) << (uint(phase) * 8)
		cw ^= d
		s1 = mulX(s1) ^ d
	}
	return Codeword(cw), mulXPow(s1, rel)
}

// laneDelta packs the old⊕new delta of at most 8 bytes into a word, byte
// j at lane j.
func laneDelta(old, new []byte) uint64 {
	var d uint64
	for j := len(old) - 1; j >= 0; j-- {
		d = d<<8 | uint64(old[j]^new[j])
	}
	return d
}
