// Error-correcting tier over the detection codewords: one syndrome word.
//
// With ECC enabled a region of W = regionSize/8 words d₀…d_{W−1} keeps,
// besides its codeword S0 = ⊕ dᵢ, one more word S1 = ⊕ xⁱ·dᵢ over
// GF(2⁶⁴) (kernel.go has the arithmetic). Comparing both with values
// recomputed from the arena gives the syndromes; a wild write that damages
// the single word i with XOR delta e leaves S0 = e and S1 = xⁱ·e. Since p
// is primitive, xᵐ differs for every m < W, so S1 = xᵐ·S0 names exactly
// one word, and XORing S0 back into it reconstructs it in place — no
// restart, no transaction rollback. The classification:
//
//   - S0 = S1 = 0: clean;
//   - S1 = xᵐ·S0 for some m < W: word m is repairable, and a repair is
//     accepted only if both syndromes then verify;
//   - anything else — S0 = 0 with S1 ≠ 0 included — is unrepairable and
//     escalates to delete-transaction recovery. Nothing is ever rebuilt
//     from the data as it stands: S1 changes only with a maintained update
//     or a recompute from an image known to be good.
//
// DESIGN.md "Error correction tier" states the radius: which damage is
// corrected, which only detected, and which neither. For W ≤ 64 no
// equal-delta damage of two or more words is ever repaired or diagnosed
// clean, because no nonzero polynomial of degree < 64 is divisible by p.
//
// Single-word regions store no S1: it would equal S0, and the damaged word
// needs no locating.
//
// Latching: stored S0 and S1 for region r live under the same
// codeword-latch stripe (latchFor), so they are mutually consistent;
// arena stability during Diagnose/Repair is the caller's protection latch,
// exactly as for VerifyRegion. Audits and VerifyRegion compare S0 only.
package region

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
)

// Verdict classifies a region's ECC syndrome.
type Verdict int

const (
	// VerdictClean: contents match both stored words.
	VerdictClean Verdict = iota
	// VerdictRepairable: a single word is damaged; its index was located.
	VerdictRepairable
	// VerdictRepaired: the damaged word was reconstructed in place and the
	// region re-verified clean.
	VerdictRepaired
	// VerdictUnrepairable: damage beyond the correction radius; escalate
	// to delete-transaction recovery.
	VerdictUnrepairable
	// VerdictUnsupported: the scheme or table has no ECC tier.
	VerdictUnsupported
)

func (v Verdict) String() string {
	switch v {
	case VerdictClean:
		return "clean"
	case VerdictRepairable:
		return "repairable"
	case VerdictRepaired:
		return "repaired"
	case VerdictUnrepairable:
		return "unrepairable"
	case VerdictUnsupported:
		return "unsupported"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// RepairResult reports one Diagnose or Repair of a region.
type RepairResult struct {
	Region  int
	Verdict Verdict
	// WordIndex is the region-relative index of the located damaged word
	// (Repairable/Repaired), and Addr its arena address.
	WordIndex int
	Addr      mem.Addr
	// Delta is the codeword syndrome S0 — the XOR that was (or would be)
	// applied to the damaged word.
	Delta Codeword
}

func (r RepairResult) String() string {
	switch r.Verdict {
	case VerdictRepairable, VerdictRepaired:
		return fmt.Sprintf("region %d %v: word %d @%d delta %016x",
			r.Region, r.Verdict, r.WordIndex, r.Addr, uint64(r.Delta))
	default:
		return fmt.Sprintf("region %d %v", r.Region, r.Verdict)
	}
}

// NumPlanesFor reports the ECC words the tier stores per region of
// regionSize bytes beside the codeword: 1 (S1), or 0 for single-word
// regions.
func NumPlanesFor(regionSize int) int {
	if regionSize > MinRegionSize {
		return 1
	}
	return 0
}

// EnableECC allocates the S1 words and derives them from the current
// codeword state being all-zero data (callers enable ECC before the table
// is populated, or follow with RecomputeAll). Must be called before
// concurrent use. The cost is 8 bytes per region.
func (t *Table) EnableECC() {
	if t.ecc {
		return
	}
	t.ecc = true
	if t.hasS1() {
		//dbvet:allow latchorder EnableECC runs before the table is shared, like NewTable
		t.s1 = make([]uint64, len(t.cws))
	}
}

// hasS1 reports whether the table stores S1: ECC on and regions of more
// than one word.
func (t *Table) hasS1() bool { return t.ecc && NumPlanesFor(t.regionSize) > 0 }

// ECCEnabled reports whether the table maintains the ECC tier.
func (t *Table) ECCEnabled() bool { return t.ecc }

// NumPlanes reports the ECC words stored per region beside the codeword:
// 1, or 0 when ECC is off or regions hold a single word.
func (t *Table) NumPlanes() int {
	if t.hasS1() {
		return 1
	}
	return 0
}

// CorruptPlane XORs delta into region r's stored S1 (j must be 0),
// bypassing maintenance — the fault injector's hook for damage to the ECC
// tier's own metadata. The data stays intact, so the region diagnoses
// VerdictUnrepairable: a syndrome word that disagrees with its data is
// never trusted to rewrite either.
func (t *Table) CorruptPlane(r, j int, delta uint64) error {
	if !t.hasS1() || j != 0 {
		return fmt.Errorf("region: no ECC word %d on region %d (ECC %v, %d words)", j, r, t.ecc, t.NumPlanes())
	}
	l := t.latchFor(r)
	l.Lock()
	t.s1[r] ^= delta
	l.Unlock()
	return nil
}

// syndrome computes region r's S0 and S1 syndromes against the arena. The
// caller must hold the protection latch that makes the contents stable;
// stored values are read under the codeword latch.
func (t *Table) syndrome(a *mem.Arena, r int) (s0 Codeword, s1 uint64) {
	cw, s1 := computeECC(a.Slice(t.RegionStart(r), t.regionSize))
	l := t.latchFor(r)
	l.Lock()
	s0 = t.cws[r] ^ cw
	if t.hasS1() {
		s1 ^= t.s1[r]
	} else {
		s1 = uint64(s0) // a single word: S1 is S0
	}
	l.Unlock()
	return s0, s1
}

// classify turns syndromes into a verdict, searching m < words for
// S1 = xᵐ·S0.
func classify(s0 Codeword, s1 uint64, words int) (verdict Verdict, wordIndex int) {
	if s0 == 0 {
		if s1 == 0 {
			return VerdictClean, 0
		}
		return VerdictUnrepairable, 0
	}
	for m, v := 0, uint64(s0); m < words; m, v = m+1, mulX(v) {
		if v == s1 {
			return VerdictRepairable, m
		}
	}
	return VerdictUnrepairable, 0
}

// Diagnose classifies region r without mutating anything: clean,
// repairable (with the located word), or unrepairable. The caller must
// hold the scheme's protection latch for r in exclusive mode, exactly as
// for an audit of r.
func (t *Table) Diagnose(a *mem.Arena, r int) RepairResult {
	if !t.ecc {
		return RepairResult{Region: r, Verdict: VerdictUnsupported}
	}
	s0, s1 := t.syndrome(a, r)
	verdict, idx := classify(s0, s1, t.regionSize/8)
	res := RepairResult{Region: r, Verdict: verdict, Delta: s0}
	if verdict == VerdictRepairable {
		res.WordIndex = idx
		res.Addr = t.RegionStart(r) + mem.Addr(idx*8)
	}
	return res
}

// Repair attempts in-place correction of region r: a located single-word
// damage is reconstructed by XORing the codeword syndrome back into the
// damaged arena word. The repaired region is re-verified against both
// stored words before VerdictRepaired is returned; a repair that does not
// restore consistency is reported VerdictUnrepairable with the arena word
// restored to what it held before the attempt. The caller must hold the
// scheme's protection latch for r in exclusive mode.
func (t *Table) Repair(a *mem.Arena, r int) RepairResult {
	res := t.Diagnose(a, r)
	if res.Verdict != VerdictRepairable {
		return res
	}
	data := a.Slice(res.Addr, 8)
	var repaired [8]byte
	binary.LittleEndian.PutUint64(repaired[:], binary.LittleEndian.Uint64(data)^uint64(res.Delta))
	// The repair stores into the arena directly: it reconstructs the damaged word from its syndromes.
	copy(data, repaired[:])
	if check := t.Diagnose(a, r); check.Verdict != VerdictClean {
		binary.LittleEndian.PutUint64(repaired[:], binary.LittleEndian.Uint64(data)^uint64(res.Delta))
		copy(data, repaired[:])
		res.Verdict = VerdictUnrepairable
		return res
	}
	res.Verdict = VerdictRepaired
	return res
}
