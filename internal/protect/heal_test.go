package protect

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/region"
)

// tabler is implemented by the codeword-bearing schemes; the heal tests
// need the table to address regions and (for white-box checks) S1.
type tabler interface {
	Table() *region.Table
}

// smash XORs delta into the 8-byte word at addr, bypassing the scheme —
// a wild write.
func smash(a *mem.Arena, addr mem.Addr, delta uint64) {
	w := a.Slice(addr, 8)
	binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)^delta)
}

// healSchemes are the codeword schemes carrying the ECC tier.
var healSchemes = []Kind{KindDataCW, KindPrecheck, KindDeferredCW}

// TestHealRepairsByteIdentical is the differential property test of the
// tentpole: across the three codeword schemes and the paper's three
// region sizes, a single-word wild write is located and repaired in
// place, leaving the region byte-identical to its pre-corruption state,
// with no recompute and no recovery.
func TestHealRepairsByteIdentical(t *testing.T) {
	for _, kind := range healSchemes {
		for _, size := range []int{64, 512, 8192} {
			t.Run(kind.String()+"/"+itoa(size), func(t *testing.T) {
				a := newTestArena(t, 1<<16)
				rand.New(rand.NewSource(int64(size))).Read(a.Bytes())
				var healed []region.RepairResult
				s, err := New(a, Config{Kind: kind, RegionSize: size,
					OnHeal: func(r region.RepairResult, _ time.Duration) { healed = append(healed, r) }})
				if err != nil {
					t.Fatal(err)
				}
				// Mix in prescribed updates so the codewords carry history.
				rng := rand.New(rand.NewSource(int64(size) + 1))
				for i := 0; i < 100; i++ {
					n := 1 + rng.Intn(300)
					addr := mem.Addr(rng.Intn(a.Size() - n))
					data := make([]byte, n)
					rng.Read(data)
					doUpdate(t, s, a, addr, data)
				}
				shadow := append([]byte(nil), a.Bytes()...)
				tab := s.(tabler).Table()

				for trial := 0; trial < 20; trial++ {
					addr := mem.Addr(rng.Intn(a.Size()/8)*8 + 0) // word-aligned wild write
					delta := rng.Uint64()
					if delta == 0 {
						delta = 1
					}
					smash(a, addr, delta)
					r := tab.RegionOf(addr)
					diag := s.Diagnose(r)
					if diag.Verdict != region.VerdictRepairable || diag.Addr != addr {
						t.Fatalf("trial %d: Diagnose = %v, want repairable @%d", trial, diag, addr)
					}
					res := s.Heal(r)
					if res.Verdict != region.VerdictRepaired {
						t.Fatalf("trial %d: Heal = %v", trial, res)
					}
					if !bytes.Equal(a.Bytes(), shadow) {
						t.Fatalf("trial %d: arena differs from pre-corruption image after heal", trial)
					}
					if bad := s.Audit(); len(bad) != 0 {
						t.Fatalf("trial %d: audit after heal: %v", trial, bad)
					}
				}
				if len(healed) != 20 {
					t.Fatalf("OnHeal fired %d times, want 20", len(healed))
				}
			})
		}
	}
}

// TestHealEscalatesDoubleWord proves graceful degradation: two words
// damaged with distinct deltas are never misrepaired — the syndrome puts
// them outside the correction radius and Heal reports unrepairable,
// leaving the bytes untouched for delete-transaction recovery.
func TestHealEscalatesDoubleWord(t *testing.T) {
	for _, kind := range healSchemes {
		t.Run(kind.String(), func(t *testing.T) {
			a := newTestArena(t, 1<<16)
			rand.New(rand.NewSource(3)).Read(a.Bytes())
			s, err := New(a, Config{Kind: kind, RegionSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			tab := s.(tabler).Table()
			start := tab.RegionStart(5)
			smash(a, start+8, 0xDEAD)
			smash(a, start+24, 0xBEEF)
			corrupted := append([]byte(nil), a.Slice(start, 512)...)
			if res := s.Heal(5); res.Verdict != region.VerdictUnrepairable {
				t.Fatalf("Heal of double-word damage = %v, want unrepairable", res)
			}
			if !bytes.Equal(a.Slice(start, 512), corrupted) {
				t.Fatal("unrepairable region was mutated by Heal")
			}
			// The damage still surfaces through the detection tier.
			if bad := s.AuditRange(start, 512); len(bad) != 1 {
				t.Fatalf("audit after failed heal: %v", bad)
			}
		})
	}
}

// TestPrecheckHealsOnRead: with the ECC tier on (the default), the read
// precheck repairs a locatable single-word damage in place and the read
// proceeds — the paper's §3.1 prevention upgraded to correction.
func TestPrecheckHealsOnRead(t *testing.T) {
	a := newTestArena(t, 8192)
	var healed int
	s, err := New(a, Config{Kind: KindPrecheck, RegionSize: 64,
		OnHeal: func(region.RepairResult, time.Duration) { healed++ }})
	if err != nil {
		t.Fatal(err)
	}
	shadow := append([]byte(nil), a.Bytes()...)
	a.Bytes()[110] ^= 0x80 // wild write inside the read's region
	if _, err := s.Read(100, 32); err != nil {
		t.Fatalf("read of repairable region: %v, want healed success", err)
	}
	if !bytes.Equal(a.Bytes(), shadow) {
		t.Fatal("arena not restored by read-path heal")
	}
	if healed != 1 {
		t.Fatalf("OnHeal fired %d times, want 1", healed)
	}
	// Damage past the correction radius still fails the read.
	a.Bytes()[70] ^= 0x01
	a.Bytes()[90] ^= 0x02
	if _, err := s.Read(64, 32); err == nil {
		t.Fatal("read of unrepairable region succeeded")
	}
}

// TestHealParityStale: damage to the stored S1 alone (data intact)
// diagnoses unrepairable and Heal escalates without touching anything:
// S1 is never rebuilt from the data as it stands, so the same syndrome
// from even-count equal-delta data damage cannot be laundered either.
// Recompute, restart recovery's step, clears it.
func TestHealParityStale(t *testing.T) {
	a := newTestArena(t, 1<<16)
	rand.New(rand.NewSource(9)).Read(a.Bytes())
	var healed []region.RepairResult
	s, err := New(a, Config{Kind: KindDataCW, RegionSize: 512,
		OnHeal: func(r region.RepairResult, _ time.Duration) { healed = append(healed, r) }})
	if err != nil {
		t.Fatal(err)
	}
	tab := s.(tabler).Table()
	if err := tab.CorruptPlane(7, 0, 0xFFFF); err != nil {
		t.Fatal(err)
	}
	if diag := s.Diagnose(7); diag.Verdict != region.VerdictUnrepairable {
		t.Fatalf("Diagnose = %v, want unrepairable", diag)
	}
	shadow := append([]byte(nil), a.Bytes()...)
	if res := s.Heal(7); res.Verdict != region.VerdictUnrepairable {
		t.Fatalf("Heal = %v", res)
	}
	if !bytes.Equal(a.Bytes(), shadow) {
		t.Fatal("Heal mutated data")
	}
	if diag := s.Diagnose(7); diag.Verdict != region.VerdictUnrepairable {
		t.Fatalf("Diagnose after Heal = %v: S1 was rebuilt", diag)
	}
	if len(healed) != 0 {
		t.Fatalf("OnHeal fired %d times, want 0", len(healed))
	}
	if err := s.Recompute(); err != nil {
		t.Fatal(err)
	}
	if diag := s.Diagnose(7); diag.Verdict != region.VerdictClean {
		t.Fatalf("Diagnose after Recompute = %v, want clean", diag)
	}
}

// TestDisableECC: with the tier off, Diagnose and Heal report
// unsupported and the detection tier is unaffected.
func TestDisableECC(t *testing.T) {
	a := newTestArena(t, 8192)
	s, err := New(a, Config{Kind: KindDataCW, RegionSize: 64, DisableECC: true})
	if err != nil {
		t.Fatal(err)
	}
	a.Bytes()[100] ^= 0x01
	if res := s.Heal(1); res.Verdict != region.VerdictUnsupported {
		t.Fatalf("Heal with ECC off = %v, want unsupported", res)
	}
	if bad := s.Audit(); len(bad) != 1 {
		t.Fatalf("detection tier broken with ECC off: %v", bad)
	}
}

// TestDeferredHealDrainsFirst: the deferred scheme's Heal must drain the
// delta queue before computing syndromes, or pending legitimate updates
// would masquerade as damage.
func TestDeferredHealDrainsFirst(t *testing.T) {
	a := newTestArena(t, 1<<16)
	s, err := New(a, Config{Kind: KindDeferredCW, RegionSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	ds := s.(*cwScheme)
	doUpdate(t, s, a, 5*512+40, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if pendingDeltas(ds) == 0 {
		t.Fatal("update did not queue a delta")
	}
	if res := s.Heal(5); res.Verdict != region.VerdictClean {
		t.Fatalf("Heal of clean region with pending deltas = %v", res)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
