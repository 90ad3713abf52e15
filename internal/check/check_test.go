package check

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hashidx"
	"repro/internal/heap"
	"repro/internal/protect"
	"repro/internal/region"
)

func setup(t *testing.T) (*core.DB, *heap.Table, *hashidx.Index) {
	t.Helper()
	db, err := core.Open(core.Config{
		Dir:       t.TempDir(),
		ArenaSize: 1 << 19,
		Protect:   protect.Config{Kind: protect.KindDataCW, RegionSize: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	hcat, _ := heap.Open(db)
	tb, err := hcat.CreateTable("t", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	icat, _ := hashidx.Open(db)
	ix, err := icat.CreateIndex("i", 64)
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := db.Begin()
	for k := uint64(0); k < 10; k++ {
		rid, err := tb.Insert(txn, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(txn, k, rid); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db, tb, ix
}

func problemAreas(ps []Problem) map[string]int {
	m := map[string]int{}
	for _, p := range ps {
		m[p.Area]++
		if p.String() == "" {
			panic("empty problem string")
		}
		if p.Code == "" {
			panic("problem without a stable code: " + p.String())
		}
	}
	return m
}

func problemCodes(ps []Problem) map[string]int {
	m := map[string]int{}
	for _, p := range ps {
		m[p.Code]++
	}
	return m
}

func TestCleanDatabasePasses(t *testing.T) {
	db, _, _ := setup(t)
	problems, err := Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean database reported: %v", problems)
	}
}

func TestDetectsCodewordMismatch(t *testing.T) {
	db, tb, _ := setup(t)
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 1)
	if _, err := inj.WildWrite(tb.RecordAddr(3)+5, []byte{0xEF}); err != nil {
		t.Fatal(err)
	}
	problems, err := Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if problemAreas(problems)["codeword"] == 0 {
		t.Fatalf("codeword corruption missed: %v", problems)
	}
	if problemCodes(problems)[CodeCodewordMismatch] == 0 {
		t.Fatalf("mismatch not coded %s: %v", CodeCodewordMismatch, problems)
	}
	for _, p := range problems {
		if p.Code == CodeCodewordMismatch && p.Severity != SevError {
			t.Fatalf("codeword mismatch should be error severity: %v", p)
		}
	}
}

func TestDetectsDanglingIndexEntry(t *testing.T) {
	db, tb, ix := setup(t)
	// Corrupt an index entry's RID to point at an unallocated slot —
	// through a wild write so codewords flag it too.
	txn, _ := db.Begin()
	addr, err := ix.EntryAddr(txn, 4)
	if err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 2)
	if _, err := inj.WildWrite(addr+16, []byte{60}); err != nil { // slot 60: unallocated
		t.Fatal(err)
	}
	_ = tb
	problems, err := Run(db)
	if err != nil {
		t.Fatal(err)
	}
	areas := problemAreas(problems)
	if areas["index"] == 0 {
		t.Fatalf("dangling index entry missed: %v", problems)
	}
	if areas["codeword"] == 0 {
		t.Fatalf("wild write missed by codeword audit: %v", problems)
	}
}

func TestReportsActiveTransactions(t *testing.T) {
	db, _, _ := setup(t)
	txn, _ := db.Begin()
	problems, err := Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if problemAreas(problems)["att"] == 0 {
		t.Fatalf("active transaction not reported: %v", problems)
	}
	// Active transactions are advisory: warning severity, so dbcheck run
	// against a live database still exits 0.
	for _, p := range problems {
		if p.Area == "att" && (p.Severity != SevWarning || p.Code != CodeActiveTxns) {
			t.Fatalf("att finding should be %s at warning severity: %v", CodeActiveTxns, p)
		}
	}
	txn.Commit()
}

func TestDetectsCorruptIndexState(t *testing.T) {
	db, _, ix := setup(t)
	txn, _ := db.Begin()
	addr, err := ix.EntryAddr(txn, 2)
	if err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 3)
	// Smash the state word to a nonsense value.
	if _, err := inj.WildWrite(addr, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	problems, err := Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if problemAreas(problems)["index"] == 0 {
		t.Fatalf("corrupt index state missed: %v", problems)
	}
}

// TestECCSweepReportsRepairable: without Heal, located single-word
// damage must surface as a CW060 error (alongside the CW010 mismatch)
// and the image must not be modified.
func TestECCSweepReportsRepairable(t *testing.T) {
	db, tb, _ := setup(t)
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 7)
	if _, err := inj.WordSmash(tb.RecordAddr(5)+16, 0xFEED); err != nil {
		t.Fatal(err)
	}
	problems, err := Run(db)
	if err != nil {
		t.Fatal(err)
	}
	codes := problemCodes(problems)
	if codes[CodeECCRepairable] != 1 {
		t.Fatalf("want one %s, got: %v", CodeECCRepairable, problems)
	}
	if codes[CodeCodewordMismatch] == 0 {
		t.Fatalf("CW010 should still fire without heal: %v", problems)
	}
	for _, p := range problems {
		if p.Code == CodeECCRepairable && (p.Severity != SevError || p.Area != "ecc") {
			t.Fatalf("CW060 should be an ecc-area error: %v", p)
		}
	}
}

// TestECCSweepHeals: with Heal, the same damage is repaired in place and
// reported as a CW061 warning; the codeword audit then finds nothing,
// and a second run is clean.
func TestECCSweepHeals(t *testing.T) {
	db, tb, _ := setup(t)
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 8)
	if _, err := inj.WordSmash(tb.RecordAddr(5)+16, 0xFEED); err != nil {
		t.Fatal(err)
	}
	problems, err := RunOpts(db, Options{Heal: true})
	if err != nil {
		t.Fatal(err)
	}
	codes := problemCodes(problems)
	if codes[CodeECCRepaired] != 1 || codes[CodeCodewordMismatch] != 0 {
		t.Fatalf("want one %s and no %s: %v", CodeECCRepaired, CodeCodewordMismatch, problems)
	}
	for _, p := range problems {
		if p.Code == CodeECCRepaired && p.Severity != SevWarning {
			t.Fatalf("a repaired finding is advisory (warning): %v", p)
		}
	}
	again, err := RunOpts(db, Options{Heal: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second healing run should be clean: %v", again)
	}
}

// TestECCSweepEscalatesUnrepairable: double-word damage reports CW062 as
// an error with or without Heal, and healing must not modify the bytes.
func TestECCSweepEscalatesUnrepairable(t *testing.T) {
	db, tb, _ := setup(t)
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 9)
	addr := tb.RecordAddr(5) + 16
	if _, err := inj.DoubleWordSmash(addr, addr+8, 0xAB, 0xCD); err != nil {
		t.Fatal(err)
	}
	problems, err := RunOpts(db, Options{Heal: true})
	if err != nil {
		t.Fatal(err)
	}
	codes := problemCodes(problems)
	if codes[CodeECCUnrepairable] != 1 {
		t.Fatalf("want one %s: %v", CodeECCUnrepairable, problems)
	}
	if codes[CodeECCRepaired] != 0 {
		t.Fatalf("unrepairable damage must not be 'repaired': %v", problems)
	}
}

// TestECCSweepFindsParityDamage: damage to the stored S1 is invisible to
// the codeword audit; only the ECC sweep reports it, as CW062 (an error)
// with or without Heal — nothing is rebuilt from the data as it stands.
// A recompute from the (intact) image, restart recovery's step, clears
// it.
func TestECCSweepFindsParityDamage(t *testing.T) {
	db, tb, _ := setup(t)
	type tabler interface{ Table() *region.Table }
	tab := db.Scheme().(tabler).Table()
	r := tab.RegionOf(tb.RecordAddr(5))
	if err := tab.CorruptPlane(r, 0, 0xF0F0); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Heal: true}} {
		problems, err := RunOpts(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		codes := problemCodes(problems)
		if codes[CodeECCUnrepairable] != 1 || codes[CodeCodewordMismatch] != 0 || codes[CodeECCRepaired] != 0 {
			t.Fatalf("heal=%v: want one %s and no %s: %v", opts.Heal, CodeECCUnrepairable, CodeCodewordMismatch, problems)
		}
	}
	if err := db.Scheme().Recompute(); err != nil {
		t.Fatal(err)
	}
	again, err := Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("after recompute the check should be clean: %v", again)
	}
}
