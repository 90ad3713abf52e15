package fault

import (
	"testing"

	"repro/internal/mem"
)

func newArena(t *testing.T) *mem.Arena {
	t.Helper()
	a, err := mem.NewArena(16*1024, 4096, mem.WithHeapBacking())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func TestWildWriteLands(t *testing.T) {
	a := newArena(t)
	in := New(a, mem.NopProtector{}, 1)
	trapped, err := in.WildWrite(100, []byte{1, 2, 3})
	if err != nil || trapped {
		t.Fatalf("trapped=%v err=%v", trapped, err)
	}
	if a.Bytes()[100] != 1 || a.Bytes()[102] != 3 {
		t.Fatal("wild write did not land")
	}
	if in.Landed() != 1 || in.Trapped() != 0 {
		t.Fatalf("landed=%d trapped=%d", in.Landed(), in.Trapped())
	}
	ev := in.Events()
	if len(ev) != 1 || ev[0].Kind != "wild-write" || ev[0].Addr != 100 || ev[0].Len != 3 {
		t.Fatalf("events: %+v", ev)
	}
}

func TestWildWriteTrappedByProtection(t *testing.T) {
	a := newArena(t)
	p := mem.NewSimProtector(a.NumPages(), 0)
	p.ProtectAll()
	in := New(a, p, 1)
	trapped, err := in.WildWrite(100, []byte{1})
	if err != nil || !trapped {
		t.Fatalf("trapped=%v err=%v", trapped, err)
	}
	if a.Bytes()[100] != 0 {
		t.Fatal("trapped write modified memory")
	}
	if in.Trapped() != 1 || in.Landed() != 0 {
		t.Fatalf("landed=%d trapped=%d", in.Landed(), in.Trapped())
	}
}

func TestWildWriteOutOfRangeIsError(t *testing.T) {
	a := newArena(t)
	in := New(a, mem.NopProtector{}, 1)
	if _, err := in.WildWrite(mem.Addr(a.Size()), []byte{1}); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestBitFlip(t *testing.T) {
	a := newArena(t)
	a.Bytes()[50] = 0b0000_1000
	in := New(a, mem.NopProtector{}, 1)
	if _, err := in.BitFlip(50, 3); err != nil {
		t.Fatal(err)
	}
	if a.Bytes()[50] != 0 {
		t.Fatalf("bit not flipped: %#x", a.Bytes()[50])
	}
	// Flip back.
	if _, err := in.BitFlip(50, 3); err != nil {
		t.Fatal(err)
	}
	if a.Bytes()[50] != 0b0000_1000 {
		t.Fatal("second flip wrong")
	}
	// Protected page: trap.
	p := mem.NewSimProtector(a.NumPages(), 0)
	p.ProtectAll()
	in2 := New(a, p, 1)
	trapped, err := in2.BitFlip(50, 0)
	if err != nil || !trapped {
		t.Fatalf("trapped=%v err=%v", trapped, err)
	}
}

// TestSameDeltaWords: every addressed word, aligned down, takes the same
// delta (equal ones to DoubleWordSmash are allowed too), and the words are
// distinct enough that an even count cancels in the XOR of them all.
func TestSameDeltaWords(t *testing.T) {
	a := newArena(t)
	in := New(a, mem.NopProtector{}, 1)
	if _, err := in.SameDeltaWords([]mem.Addr{64, 75, 200, 264}, 0xAB); err != nil {
		t.Fatal(err)
	}
	if _, err := in.DoubleWordSmash(512, 520, 0xCD, 0xCD); err != nil {
		t.Fatal(err)
	}
	var x byte
	for i, b := range a.Bytes() {
		if want := i == 64 || i == 72 || i == 200 || i == 264 || i == 512 || i == 520; (b != 0) != want {
			t.Fatalf("byte %d = %#x", i, b)
		}
		x ^= b
	}
	if x != 0 {
		t.Fatalf("six equal deltas do not cancel: %#x", x)
	}
	if ev := in.Events(); len(ev) != 6 || ev[0].Kind != "same-delta" || ev[4].Kind != "double-word" {
		t.Fatalf("events: %+v", ev)
	}
}

func TestCopyOverrun(t *testing.T) {
	a := newArena(t)
	copy(a.Bytes()[96:100], []byte{7, 8, 9, 10})
	in := New(a, mem.NopProtector{}, 1)
	trapped, err := in.CopyOverrun(100, 4)
	if err != nil || trapped {
		t.Fatalf("trapped=%v err=%v", trapped, err)
	}
	for i, want := range []byte{7, 8, 9, 10} {
		if a.Bytes()[100+i] != want {
			t.Fatalf("overrun byte %d = %d, want %d", i, a.Bytes()[100+i], want)
		}
	}
	// Overrun at the arena start clamps.
	if _, err := in.CopyOverrun(2, 10); err != nil {
		t.Fatal(err)
	}
	// Zero-length after clamping is a no-op.
	if _, err := in.CopyOverrun(0, 5); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWildWriteStaysInBounds(t *testing.T) {
	a := newArena(t)
	in := New(a, mem.NopProtector{}, 42)
	for i := 0; i < 200; i++ {
		ev, err := in.RandomWildWrite(4096, 8192, 16)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Addr < 4096 || int(ev.Addr)+ev.Len > 8192 {
			t.Fatalf("fault [%d,+%d) outside window", ev.Addr, ev.Len)
		}
	}
	if in.Landed() != 200 {
		t.Fatalf("landed = %d", in.Landed())
	}
}

func TestRandomWildWriteDeterministicPerSeed(t *testing.T) {
	a1, a2 := newArena(t), newArena(t)
	in1 := New(a1, mem.NopProtector{}, 7)
	in2 := New(a2, mem.NopProtector{}, 7)
	for i := 0; i < 50; i++ {
		e1, _ := in1.RandomWildWrite(0, 4096, 8)
		e2, _ := in2.RandomWildWrite(0, 4096, 8)
		if e1.Addr != e2.Addr || e1.Len != e2.Len {
			t.Fatal("same seed diverged")
		}
	}
}
