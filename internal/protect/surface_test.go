package protect

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/region"
)

// TestSchemeSurfaces exercises the uniform scheme surface — token
// accessors, abort paths, range audits, recompute — across every kind.
func TestSchemeSurfaces(t *testing.T) {
	a := newTestArena(t, 1<<15)
	kinds := []Config{
		{Kind: KindBaseline},
		{Kind: KindDataCW, RegionSize: 64},
		{Kind: KindPrecheck, RegionSize: 64},
		{Kind: KindReadLog, RegionSize: 64},
		{Kind: KindCWReadLog, RegionSize: 64},
		{Kind: KindDeferredCW, RegionSize: 64},
		{Kind: KindHW, ForceSimProtect: true},
	}
	for _, cfg := range kinds {
		s, err := New(a, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		tok, err := s.BeginUpdate(128, 16)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		if tok.Addr() != 128 || tok.Len() != 16 {
			t.Fatalf("%v: token accessors wrong", cfg.Kind)
		}
		// Abort path: before-image untouched, so no restore needed.
		if err := s.AbortUpdate(tok); err != nil {
			t.Fatalf("%v abort: %v", cfg.Kind, err)
		}
		if got := s.AuditRange(0, 256); len(got) != 0 {
			t.Fatalf("%v: clean range audit: %v", cfg.Kind, got)
		}
		if err := s.Recompute(); err != nil {
			t.Fatalf("%v recompute: %v", cfg.Kind, err)
		}
		// Out-of-range requests are rejected uniformly.
		if _, err := s.BeginUpdate(mem.Addr(a.Size()), 8); err == nil {
			t.Fatalf("%v: out-of-range update accepted", cfg.Kind)
		}
		if _, err := s.Read(mem.Addr(a.Size()), 8); err == nil {
			t.Fatalf("%v: out-of-range read accepted", cfg.Kind)
		}
		if cfg.Kind == KindHW && s.Kind() != KindHW {
			t.Fatal("hw kind wrong")
		}
		_ = s.RegionSize()
	}
}

// TestSchemeConformance checks, for every row of the policy table, that
// the scheme built for that kind behaves as the row says: the matrix is
// data, and this is what holds the one mechanism to it.
func TestSchemeConformance(t *testing.T) {
	const rs = 64
	for k, pol := range policies {
		kind := Kind(k)
		newScheme := func(t *testing.T, cfg Config) (Scheme, *mem.Arena) {
			a := newTestArena(t, 1<<14)
			rand.New(rand.NewSource(int64(k) + 1)).Read(a.Bytes())
			cfg.Kind, cfg.ForceSimProtect = kind, true
			if kind.HasCodewords() {
				cfg.RegionSize = rs
			}
			s, err := New(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s, a
		}

		t.Run(kind.String()+"/identity", func(t *testing.T) {
			s, _ := newScheme(t, Config{})
			if got, err := ParseKind(pol.name); err != nil || got != kind {
				t.Errorf("ParseKind(%q) = %v, %v", pol.name, got, err)
			}
			if s.Kind() != kind || kind.String() != pol.str {
				t.Errorf("Kind() = %v, String() = %q, want %q", s.Kind(), kind, pol.str)
			}
			_, isCW := s.(*cwScheme)
			if isCW != kind.HasCodewords() || isCW != (s.RegionSize() != 0) {
				t.Errorf("cwScheme %v, HasCodewords %v, RegionSize %d", isCW, kind.HasCodewords(), s.RegionSize())
			}
			if isCW && s.(tabler).Table() == nil {
				t.Error("codeword scheme without a table")
			}
			if kind.LogsCodewords() != (kind == KindCWReadLog) {
				t.Errorf("LogsCodewords() = %v", kind.LogsCodewords())
			}
		})

		// The update bracket excludes a shared holder of the region's
		// protection latch exactly when the policy says exclusive.
		t.Run(kind.String()+"/update-latch", func(t *testing.T) {
			s, _ := newScheme(t, Config{})
			cs, ok := s.(*cwScheme)
			if !ok {
				t.Skip("no protection latch")
			}
			tok, err := s.BeginUpdate(3*rs+8, 8)
			if err != nil {
				t.Fatal(err)
			}
			l := cs.prot.For(3)
			acquired := make(chan struct{})
			go func() {
				l.RLock()
				close(acquired)
				l.RUnlock()
			}()
			if pol.exclusive {
				select {
				case <-acquired:
					t.Error("shared holder admitted inside an exclusive update bracket")
				case <-time.After(20 * time.Millisecond):
				}
			} else {
				<-acquired
			}
			if err := s.AbortUpdate(tok); err != nil {
				t.Fatal(err)
			}
			<-acquired
		})

		t.Run(kind.String()+"/read", func(t *testing.T) {
			s, a := newScheme(t, Config{})
			// A read spanning regions 2 and 3.
			want := ReadInfo{LogRead: pol.read == readLog || pol.read == readLogCW, HasCW: pol.read == readLogCW}
			if want.HasCW {
				want.CW = region.Compute(a.Slice(2*rs, rs)) ^ region.Compute(a.Slice(3*rs, rs))
			}
			if got, err := s.Read(3*rs-4, 8); err != nil || got != want {
				t.Errorf("Read = %+v, %v; want %+v", got, err, want)
			}
		})

		// A damaged word fails the read only under a verifying policy, and
		// is healed there only with ECC on and DisableHeal unset.
		for _, cfg := range []Config{{}, {DisableHeal: true}, {DisableECC: true}} {
			cfg := cfg
			name := fmt.Sprintf("%s/damaged-read/heal=%v,ecc=%v", kind, !cfg.DisableHeal, !cfg.DisableECC)
			t.Run(name, func(t *testing.T) {
				s, a := newScheme(t, cfg)
				clean := append([]byte(nil), a.Bytes()...)
				smash(a, 5*rs+16, 0xBAD)
				_, err := s.Read(5*rs, 8)
				verifies := pol.read == readVerify
				heals := verifies && !cfg.DisableHeal && !cfg.DisableECC
				if wantErr := verifies && !heals; wantErr != errors.Is(err, ErrPrecheckFailed) || (!wantErr && err != nil) {
					t.Errorf("Read of damaged region: %v", err)
				}
				if healed := bytes.Equal(a.Bytes(), clean); healed != heals {
					t.Errorf("arena restored = %v, want %v", healed, heals)
				}
			})
		}

		t.Run(kind.String()+"/pre-write-cw", func(t *testing.T) {
			s, a := newScheme(t, Config{})
			addr, data := mem.Addr(7*rs-3), []byte{1, 2, 3, 4, 5, 6, 7}
			before := region.Compute(a.Slice(6*rs, rs)) ^ region.Compute(a.Slice(7*rs, rs))
			old := append([]byte(nil), a.Slice(addr, len(data))...)
			tok, err := s.BeginUpdate(addr, len(data))
			if err != nil {
				t.Fatal(err)
			}
			copy(a.Slice(addr, len(data)), data)
			cw, ok := s.PreWriteCW(addr, old, data)
			if ok != (pol.read == readLogCW) || (ok && cw != before) {
				t.Errorf("PreWriteCW = %#x, %v; pre-update codeword %#x", cw, ok, before)
			}
			if err := s.EndUpdate(tok, old, data); err != nil {
				t.Fatal(err)
			}
			if bad := s.Audit(); len(bad) != 0 {
				t.Errorf("audit after update: %v", bad)
			}
		})

		// A deferring policy leaves deltas queued after EndUpdate, and
		// nothing that compares a region with its codeword sees them.
		t.Run(kind.String()+"/fold", func(t *testing.T) {
			s, a := newScheme(t, Config{})
			cs, ok := s.(*cwScheme)
			if !ok {
				t.Skip("no codewords")
			}
			for name, verify := range map[string]func(){
				"AuditRange": func() { s.AuditRange(0, rs) },
				"Diagnose":   func() { s.Diagnose(0) },
				"Heal":       func() { s.Heal(0) },
				"Recompute":  func() { s.Recompute() },
			} {
				// Flip a byte: a zero delta would not be queued.
				doUpdate(t, s, a, 9*rs, []byte{^a.Bytes()[9*rs]})
				if queued := pendingDeltas(cs) != 0; queued != pol.deferFold {
					t.Errorf("deltas pending after EndUpdate = %v, want %v", queued, pol.deferFold)
				}
				verify()
				if n := pendingDeltas(cs); n != 0 {
					t.Errorf("%d deltas pending after %s", n, name)
				}
				if bad := s.Audit(); len(bad) != 0 {
					t.Errorf("audit after %s: %v", name, bad)
				}
			}
		})
	}
	for _, name := range []string{"", "data-cw", "DataCW", "nosuch"} {
		if k, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) = %v, want an error", name, k)
		}
	}
}
