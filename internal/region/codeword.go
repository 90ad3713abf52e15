// Package region implements the paper's codeword machinery: the database
// image is divided into fixed-size protection regions, and each region has
// an associated codeword equal to the bitwise exclusive-or of the 64-bit
// words in the region — bit i of the codeword is the parity of bit i of
// each word (paper §3).
//
// Codewords are maintained incrementally. When an update replaces old
// bytes with new bytes, the codeword changes by the fold of old XOR new at
// the update's byte lanes; this handles arbitrary unaligned updates,
// including updates spanning protection regions, without recomputing whole
// regions. A wild write that bypasses this maintenance leaves the stored
// codeword stale, so a subsequent verification of the region detects the
// corruption with probability 1 - 2^-64 per corrupted region (a corrupting
// write goes undetected only if it is parity-neutral in every bit lane).
//
// The Table owns the codeword latch: a striped mutex table guarding the
// codeword values themselves. The protection latches — which guard the
// consistency of (region contents, codeword) pairs and whose acquisition
// policy differs between the Read Prechecking and Data Codeword schemes —
// belong to the protection schemes in package protect.
package region

import (
	"fmt"
	"time"

	"repro/internal/latch"
	"repro/internal/mem"
	"repro/internal/obs"
)

// MinRegionSize is the smallest supported protection region: one codeword
// word. The paper evaluates 64-byte, 512-byte and 8-kilobyte regions.
const MinRegionSize = 8

// Codeword is the protection codeword of a region: the XOR of its 64-bit
// little-endian words.
type Codeword uint64

// Fold XORs data into a codeword starting at byte lane phase (0..7). The
// lane of a byte at arena address a is a mod 8, so callers pass the
// address of data's first byte modulo 8. Fold is the primitive both for
// computing region codewords (phase 0) and for folding old^new deltas of
// unaligned updates. It runs the word-at-a-time kernel of kernel.go.
func Fold(cw Codeword, data []byte, phase int) Codeword {
	return foldKernel(cw, data, phase)
}

// Compute returns the codeword of a full region image: the XOR of its
// little-endian 64-bit words (a trailing sub-word, which regions never
// have, folds at phase 0).
func Compute(data []byte) Codeword {
	acc, i := foldWords(data)
	cw := Codeword(acc)
	if i < len(data) {
		cw = foldGeneric(cw, data[i:], 0)
	}
	return cw
}

// Table holds the codewords for an arena divided into protection regions
// of a fixed power-of-two size.
type Table struct {
	regionSize int
	shift      uint
	cws        []Codeword
	// ECC tier (EnableECC): numPlanes locator planes per region, stored
	// flat as planes[r*numPlanes : (r+1)*numPlanes] and guarded by the
	// same codeword-latch stripe as cws[r]. See ecc.go.
	ecc       bool
	numPlanes int
	planes    []uint64
	cwLatch   *latch.Striped //dbvet:latch codeword — the paper's "codeword latch"
	// pool runs the table's whole-arena scans (RecomputeAll, AuditRange)
	// across workers. A nil pool runs them on the calling goroutine.
	pool *Pool

	// Observability: fold and audit counters. Nil until SetRegistry;
	// nil metric handles are safe no-ops.
	mFolds        *obs.Counter
	mFoldBytes    *obs.Counter
	mAudited      *obs.Counter
	mRecomputeBPS *obs.Histogram // per-worker-chunk recompute throughput, bytes/s
	mAuditBPS     *obs.Histogram // per-worker-chunk audit throughput, bytes/s
}

// SetRegistry wires the table's fold/audit counters and codeword-latch
// wait instrumentation into reg. Must be called before concurrent use.
func (t *Table) SetRegistry(reg *obs.Registry) {
	t.mFolds = reg.Counter(obs.NameRegionFolds)
	t.mFoldBytes = reg.Counter(obs.NameRegionFoldBytes)
	t.mAudited = reg.Counter(obs.NameRegionAudited)
	t.mRecomputeBPS = reg.Histogram(obs.NameRegionRecomputeBPS)
	t.mAuditBPS = reg.Histogram(obs.NameRegionAuditBPS)
	t.cwLatch.Instrument(reg, "region.cw", reg.Histogram(obs.NameRegionCWWaitNS), reg.Counter(obs.NameRegionCWContends))
}

// SetPool attaches the worker pool used by whole-arena scans. Must be set
// before concurrent use; nil (the default) keeps the scans serial.
func (t *Table) SetPool(p *Pool) { t.pool = p }

// Pool reports the attached worker pool (nil when scans are serial).
func (t *Table) Pool() *Pool { return t.pool }

// noteThroughput starts a throughput sample of processing n bytes; the
// returned func completes it, recording bytes/second into h. Workers call
// it once per chunk, so the histogram holds per-worker-chunk throughput.
func (t *Table) noteThroughput(h *obs.Histogram, n int) func() {
	if h == nil || n <= 0 {
		return func() {}
	}
	start := time.Now()
	return func() {
		if ns := time.Since(start).Nanoseconds(); ns > 0 {
			h.Observe(uint64(float64(n) * 1e9 / float64(ns)))
		}
	}
}

// NewTable creates a codeword table for an image of arenaSize bytes with
// the given region size. regionSize must be a power of two >= 8 and must
// divide arenaSize.
func NewTable(arenaSize, regionSize int) (*Table, error) {
	if regionSize < MinRegionSize || regionSize&(regionSize-1) != 0 {
		return nil, fmt.Errorf("region: region size %d is not a power of two >= %d", regionSize, MinRegionSize)
	}
	if arenaSize <= 0 || arenaSize%regionSize != 0 {
		return nil, fmt.Errorf("region: arena size %d is not a positive multiple of region size %d", arenaSize, regionSize)
	}
	shift := uint(0)
	for 1<<shift != regionSize {
		shift++
	}
	n := arenaSize / regionSize
	stripes := n
	if stripes > 4096 {
		stripes = 4096
	}
	return &Table{
		regionSize: regionSize,
		shift:      shift,
		cws:        make([]Codeword, n),
		cwLatch:    latch.NewStriped(stripes),
	}, nil
}

// RegionSize reports the protection region size in bytes.
func (t *Table) RegionSize() int { return t.regionSize }

// NumRegions reports the number of protection regions.
func (t *Table) NumRegions() int { return len(t.cws) }

// RegionOf reports the region containing addr.
func (t *Table) RegionOf(addr mem.Addr) int {
	return int(uint64(addr) >> t.shift)
}

// RegionRange reports the inclusive region range covered by [addr, addr+n).
// A zero-length range covers the single region containing addr.
func (t *Table) RegionRange(addr mem.Addr, n int) (first, last int) {
	first = t.RegionOf(addr)
	if n <= 0 {
		return first, first
	}
	return first, t.RegionOf(addr + mem.Addr(n) - 1)
}

// RegionStart reports the arena address at which region r begins.
func (t *Table) RegionStart(r int) mem.Addr {
	return mem.Addr(uint64(r) << t.shift)
}

// latchFor returns region r's stripe of the codeword latch. Every access
// to t.cws[r] — Codeword, Set, xorInto — must go through this one helper
// so that readers and writers of the same region can never end up on
// different stripes (which would make a torn 64-bit read observable).
func (t *Table) latchFor(r int) *latch.Latch {
	return t.cwLatch.For(uint64(r))
}

// Codeword returns the stored codeword for region r, read under the
// codeword latch.
func (t *Table) Codeword(r int) Codeword {
	l := t.latchFor(r)
	l.Lock()
	cw := t.cws[r]
	l.Unlock()
	return cw
}

// xorInto folds a codeword delta and the matching locator-plane deltas
// into region r under one acquisition of the codeword latch, keeping the
// (codeword, planes) pair mutually consistent. pd is nil with ECC off.
func (t *Table) xorInto(r int, delta Codeword, pd []uint64) {
	if delta == 0 && !anyNonzero(pd) {
		return
	}
	l := t.latchFor(r)
	l.Lock()
	t.cws[r] ^= delta
	t.xorPlanesLocked(r, pd)
	l.Unlock()
}

// anyNonzero reports whether any plane delta is nonzero (a delta of two
// equal word changes cancels in the codeword but not in every plane).
func anyNonzero(pd []uint64) bool {
	for _, d := range pd {
		if d != 0 {
			return true
		}
	}
	return false
}

// regionDelta computes the codeword delta of the part of an update at
// addr that falls inside one region: the bytes of oldData/newData from
// offset i up to the region's end (returned as end, the offset at which
// the next region's part starts). With ECC enabled planes is the caller's
// scratch and receives the matching plane deltas from the same fused
// kernel pass; with ECC off planes is nil. It is the shared step of
// ApplyUpdate and UpdateDeltas, which own the loop so that the scratch
// never passes through a function value and stays on their stacks.
func (t *Table) regionDelta(planes []uint64, addr mem.Addr, i int, oldData, newData []byte) (r, end int, delta Codeword, err error) {
	a := addr + mem.Addr(i)
	r = t.RegionOf(a)
	if r >= len(t.cws) {
		return 0, 0, 0, fmt.Errorf("region: address %d beyond codeword table", a)
	}
	// Bytes of this update falling inside region r.
	end = int(t.RegionStart(r+1) - addr)
	if end > len(oldData) {
		end = len(oldData)
	}
	if planes != nil {
		clear(planes)
		rel := int(a-t.RegionStart(r)) >> 3
		delta = foldDeltaPlanes(planes, rel, oldData[i:end], newData[i:end], int(a&7))
	} else {
		delta = foldDeltaKernel(0, oldData[i:end], newData[i:end], int(a&7))
	}
	t.mFolds.Inc()
	t.mFoldBytes.Add(uint64(end - i))
	return r, end, delta, nil
}

// ApplyUpdate folds the effect of replacing old with new at addr into the
// affected region codewords. old and new must be the same length. This is
// the "codeword maintenance" step performed at endUpdate (and again during
// rollback of an update whose codeword had already been applied).
func (t *Table) ApplyUpdate(addr mem.Addr, oldData, newData []byte) error {
	if len(oldData) != len(newData) {
		return fmt.Errorf("region: undo image %d bytes but new image %d bytes", len(oldData), len(newData))
	}
	var scratch planeScratch
	planes := t.planeBuf(&scratch)
	for i := 0; i < len(oldData); {
		r, end, delta, err := t.regionDelta(planes, addr, i, oldData, newData)
		if err != nil {
			return err
		}
		t.xorInto(r, delta, planes)
		i = end
	}
	return nil
}

// Delta is a pending codeword change for one region, used by the
// deferred-maintenance scheme: the XOR that ApplyUpdate would have folded
// into the region's codeword immediately, plus (with ECC enabled) the
// matching locator-plane deltas.
type Delta struct {
	Region int
	Delta  Codeword
	Planes []uint64
}

// UpdateDeltas computes the per-region codeword deltas of replacing old
// with new at addr, appending them to buf (which may be nil) without
// touching the table. XorDelta applies them later; applying the deltas in
// any order and interleaving is correct because XOR commutes.
func (t *Table) UpdateDeltas(buf []Delta, addr mem.Addr, oldData, newData []byte) ([]Delta, error) {
	if len(oldData) != len(newData) {
		return buf, fmt.Errorf("region: undo image %d bytes but new image %d bytes", len(oldData), len(newData))
	}
	var scratch planeScratch
	planes := t.planeBuf(&scratch)
	for i := 0; i < len(oldData); {
		r, end, delta, err := t.regionDelta(planes, addr, i, oldData, newData)
		if err != nil {
			return buf, err
		}
		if delta != 0 || anyNonzero(planes) {
			buf = append(buf, Delta{Region: r, Delta: delta, Planes: append([]uint64(nil), planes...)})
		}
		i = end
	}
	return buf, nil
}

// XorInto folds a previously computed codeword delta into region r under
// the codeword latch. Plane-carrying deltas go through XorDelta; XorInto
// exists for callers outside the ECC tier.
func (t *Table) XorInto(r int, delta Codeword) {
	t.xorInto(r, delta, nil)
}

// XorDelta applies one queued Delta — codeword and locator planes — under
// a single codeword-latch acquisition.
func (t *Table) XorDelta(d Delta) {
	t.xorInto(d.Region, d.Delta, d.Planes)
}

// Set stores a codeword directly (used when loading a checkpointed table
// or initializing from a fresh image). With ECC enabled the stored
// planes are left untouched and therefore go stale; callers that install
// raw codewords must follow with RecomputeAll (which rebuilds planes) or
// accept VerdictParityStale diagnoses until Repair rebuilds them. Stale
// planes are safe: they can never cause a miscorrection, only degrade a
// repairable region to an escalation.
func (t *Table) Set(r int, cw Codeword) {
	l := t.latchFor(r)
	l.Lock()
	//dbvet:allow cwpair Set installs a raw codeword by design; planes rebuild via RecomputeAll or Repair
	t.cws[r] = cw
	l.Unlock()
}

// recomputeRegion re-derives region r's codeword and locator planes from
// the arena contents in one pass, storing both under the codeword latch.
func (t *Table) recomputeRegion(a *mem.Arena, r int) {
	data := a.Slice(t.RegionStart(r), t.regionSize)
	if !t.ecc {
		t.Set(r, Compute(data))
		return
	}
	var scratch planeScratch
	fresh := t.planeBuf(&scratch)
	cw := computeECC(data, fresh)
	l := t.latchFor(r)
	l.Lock()
	t.cws[r] = cw
	copy(t.planesLocked(r), fresh)
	l.Unlock()
}

// RecomputeAll recomputes every codeword (and, with ECC, every locator
// plane) from the arena contents. Used at startup and after recovery,
// when the image is known to be good. When a pool has been attached with
// SetPool the region range is chunked across its workers; the per-region
// store still goes through the codeword latch.
func (t *Table) RecomputeAll(a *mem.Arena) {
	t.pool.Run(len(t.cws), poolMinGrainBytes/t.regionSize, func(lo, hi int) {
		done := t.noteThroughput(t.mRecomputeBPS, (hi-lo)*t.regionSize)
		for r := lo; r < hi; r++ {
			t.recomputeRegion(a, r)
		}
		done()
	})
}

// VerifyRegion recomputes region r's codeword from the arena and compares
// it with the stored value. The caller must hold whatever protection latch
// the active scheme requires to make the (contents, codeword) pair stable;
// VerifyRegion itself only takes the codeword latch for the stored value.
func (t *Table) VerifyRegion(a *mem.Arena, r int) bool {
	start := t.RegionStart(r)
	return Compute(a.Slice(start, t.regionSize)) == t.Codeword(r)
}

// Mismatch describes a region whose contents do not match its codeword.
type Mismatch struct {
	Region int
	Start  mem.Addr
	Len    int
	Stored Codeword
	Actual Codeword
}

func (m Mismatch) String() string {
	return fmt.Sprintf("region %d [%d,+%d): stored %016x actual %016x",
		m.Region, m.Start, m.Len, uint64(m.Stored), uint64(m.Actual))
}

// auditRegion checks one region, appending to out on mismatch.
func (t *Table) auditRegion(a *mem.Arena, r int, out []Mismatch) []Mismatch {
	start := t.RegionStart(r)
	actual := Compute(a.Slice(start, t.regionSize))
	stored := t.Codeword(r)
	if actual != stored {
		out = append(out, Mismatch{Region: r, Start: start, Len: t.regionSize, Stored: stored, Actual: actual})
	}
	return out
}

// AuditRange verifies every region intersecting [addr, addr+n) and returns
// the mismatches found, in ascending region order. Latching discipline is
// the caller's responsibility (see AuditRangeLatched for the schemes'
// audits). When a pool is attached the range is chunked across its
// workers; each worker only reads the arena and takes the codeword latch
// per region, so the caller's latching covers the parallel case exactly as
// the serial one.
func (t *Table) AuditRange(a *mem.Arena, addr mem.Addr, n int) []Mismatch {
	return t.AuditRangeLatched(a, addr, n, nil, nil)
}

// AuditRangeLatched is AuditRange under a scheme's audit discipline, the
// one audit loop there is: each region is compared with its codeword while
// prot's latch for it is held exclusive, after drain (Deferred Maintenance's
// delta queue; nil otherwise) has run under that latch. The latch is taken
// region by region, as the paper prescribes — chunking the range across
// workers changes only which goroutine takes each latch, never what is held
// while a region is compared. The bookkeeping is per worker chunk: regions
// counted and throughput sampled once around the chunk's loop, so
// audit_bytes_per_sec holds one sample per 64 KB or more, not one clock
// pair per 64-byte region (which costs more than checking it).
func (t *Table) AuditRangeLatched(a *mem.Arena, addr mem.Addr, n int, prot *latch.Striped, drain func()) []Mismatch {
	first, last := t.RegionRange(addr, n)
	if last >= len(t.cws) {
		last = len(t.cws) - 1
	}
	if first > last {
		return nil
	}
	// Per-chunk results keep deterministic ascending order.
	chunks := RunChunked(t.pool, last-first+1, poolMinGrainBytes/t.regionSize, func(lo, hi int) []Mismatch {
		t.mAudited.Add(uint64(hi - lo))
		done := t.noteThroughput(t.mAuditBPS, (hi-lo)*t.regionSize)
		var out []Mismatch
		for r := first + lo; r < first+hi; r++ {
			if prot == nil {
				out = t.auditRegion(a, r, out)
				continue
			}
			l := prot.For(uint64(r))
			l.Lock()
			if drain != nil {
				drain()
			}
			out = t.auditRegion(a, r, out)
			l.Unlock()
		}
		done()
		return out
	})
	var out []Mismatch
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// AuditAll verifies every region of the arena.
func (t *Table) AuditAll(a *mem.Arena) []Mismatch {
	return t.AuditRange(a, 0, a.Size())
}
