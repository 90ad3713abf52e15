// Targeted damage shapes for the heal/escalate campaign: each shape
// lands on a known rung of the ECC tier's correction ladder, so the
// campaign can exercise every rung deterministically instead of hoping
// random wild writes happen to produce them. Besides one-word damage they
// model what the paper's fault class — a copy or memset through a bad
// pointer — actually writes: several words changed by the same delta.
package fault

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/region"
)

// wordAddr aligns addr down to its containing 8-byte word.
func wordAddr(addr mem.Addr) mem.Addr { return addr &^ 7 }

// smashWord XOR-damages the aligned word containing addr with delta,
// routed through GuardedWrite so hardware protection still traps it.
func (in *Injector) smashWord(kind string, addr mem.Addr, delta uint64) (trapped bool, err error) {
	wa := wordAddr(addr)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], binary.LittleEndian.Uint64(in.arena.Slice(wa, 8))^delta)
	err = mem.GuardedWrite(in.arena, in.prot, wa, buf[:])
	switch {
	case err == nil:
		in.note(kind, wa, 8, false)
		return false, nil
	case isTrap(err):
		in.note(kind, wa, 8, true)
		return true, nil
	default:
		return false, err
	}
}

// SingleBitFlip flips one bit inside the word containing addr — the
// smallest repairable damage (a one-bit codeword syndrome).
func (in *Injector) SingleBitFlip(addr mem.Addr, bit uint) (trapped bool, err error) {
	return in.smashWord("single-bit", addr, 1<<((uint(addr&7)*8+bit)&63))
}

// WordSmash XORs a nonzero delta into the single aligned word containing
// addr: the canonical repairable wild write. delta 0 is coerced to 1.
func (in *Injector) WordSmash(addr mem.Addr, delta uint64) (trapped bool, err error) {
	if delta == 0 {
		delta = 1
	}
	return in.smashWord("word-smash", addr, delta)
}

// DoubleWordSmash damages two distinct words of the same region, with
// any two nonzero deltas — equal ones included, which cancel in the
// codeword. Past the correction radius either way; the ECC tier must
// escalate rather than misrepair. addr2's word must differ from addr1's.
func (in *Injector) DoubleWordSmash(addr1, addr2 mem.Addr, d1, d2 uint64) (trapped bool, err error) {
	if wordAddr(addr1) == wordAddr(addr2) {
		addr2 = wordAddr(addr1) + 8
	}
	if d1 == 0 {
		d1 = 1
	}
	if d2 == 0 {
		d2 = 1
	}
	t1, err := in.smashWord("double-word", addr1, d1)
	if err != nil {
		return t1, err
	}
	t2, err := in.smashWord("double-word", addr2, d2)
	return t1 || t2, err
}

// SameDeltaWords XORs one nonzero delta into the aligned word containing
// each of addrs: a memset run (contiguous words), an overrun of repeated
// records (a stride of the record's words), or any other index set. An
// even count cancels in the codeword, so only the ECC tier's S1 sees it.
func (in *Injector) SameDeltaWords(addrs []mem.Addr, delta uint64) (trapped bool, err error) {
	if delta == 0 {
		delta = 1
	}
	for _, a := range addrs {
		t, err := in.smashWord("same-delta", a, delta)
		trapped = trapped || t
		if err != nil {
			return trapped, err
		}
	}
	return trapped, nil
}

// ParityHit XORs delta into region r's stored S1 (plane must be 0) —
// damage to the ECC tier's own metadata rather than the data. Alone it
// diagnoses unrepairable: the codeword audit sees nothing, the ECC sweep
// escalates, and nothing is rebuilt from the data.
func (in *Injector) ParityHit(tab *region.Table, r, plane int, delta uint64) error {
	if delta == 0 {
		delta = 1
	}
	if err := tab.CorruptPlane(r, plane, delta); err != nil {
		return err
	}
	in.mParity.Inc()
	in.events = append(in.events, Event{Kind: "parity-hit", Addr: tab.RegionStart(r), Len: 0, Trapped: false})
	return nil
}
