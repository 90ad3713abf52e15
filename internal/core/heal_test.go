package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/wal"
)

// TestAuditHealsWildWrite: under Read Prechecking with the ECC tier on
// (the default), an audit that finds a single-word wild write repairs it
// in place and finishes without CorruptionError — no crash, no
// delete-transaction recovery.
func TestAuditHealsWildWrite(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64})
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	opUpdate(t, txn, 1, 500, []byte("valuable"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	shadow := append([]byte(nil), db.Internals().Arena.Bytes()...)

	db.Internals().Arena.Bytes()[500] ^= 0xFF // wild write
	if err := db.Audit(); err != nil {
		t.Fatalf("audit of repairable corruption: %v", err)
	}
	if !bytes.Equal(db.Internals().Arena.Bytes(), shadow) {
		t.Fatal("arena not byte-identical after heal")
	}
	m := db.Metrics()
	if m.Counters[obs.NameHeals] != 1 {
		t.Fatalf("heals = %d, want 1", m.Counters[obs.NameHeals])
	}
	if m.Counters[obs.NameCorruptions] != 0 {
		t.Fatalf("corruptions = %d, want 0", m.Counters[obs.NameCorruptions])
	}
	// The repair latency histogram is in the snapshot.
	if h, ok := m.Histograms[obs.NameHealNS]; !ok || h.Count != 1 {
		t.Fatalf("heal_ns histogram missing or empty: %+v", h)
	}
	if db.HealGeneration() != 1 {
		t.Fatalf("heal generation = %d", db.HealGeneration())
	}
}

// TestHealedPassDoesNotAdvanceAuditSN: a pass that healed was not clean
// from its begin record onward, so Audit_SN must stay put until a fully
// clean pass runs — in memory, and in the log, where the healed pass's
// end record says not clean (with no corrupt ranges) so a restart's
// prescan does not advance past it either.
func TestHealedPassDoesNotAdvanceAuditSN(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64})
	if err := db.Audit(); err != nil {
		t.Fatal(err)
	}
	sn := db.LastCleanAuditLSN()
	db.Internals().Arena.Bytes()[300] ^= 0x10
	if err := db.Audit(); err != nil {
		t.Fatalf("healing audit: %v", err)
	}
	healedSN := db.AuditSerial()
	if got := db.LastCleanAuditLSN(); got != sn {
		t.Fatalf("healed pass advanced Audit_SN %d -> %d", sn, got)
	}
	if err := db.Audit(); err != nil {
		t.Fatal(err)
	}
	if got := db.LastCleanAuditLSN(); got <= sn {
		t.Fatalf("clean pass did not advance Audit_SN (still %d)", got)
	}
	db.Close()
	clean := map[uint64]bool{}
	scanLog(t, db.Config().Dir, func(r *wal.Record) {
		if r.Kind == wal.KindAuditEnd {
			clean[r.AuditSN] = r.AuditClean
			if len(r.CorruptAddrs) != 0 {
				t.Errorf("pass %d logged corrupt ranges %v", r.AuditSN, r.CorruptAddrs)
			}
		}
	})
	if len(clean) != 3 || !clean[healedSN-1] || clean[healedSN] || !clean[healedSN+1] {
		t.Fatalf("audit-end AuditClean by pass: %v (healed pass %d)", clean, healedSN)
	}
}

// TestAuditDoesNotHealWhereReadsAreUnverified: outside Read Prechecking a
// transaction may already have read a damaged word, so the audit must not
// hide it by healing. Under every other codeword kind, with the ECC tier
// on, a single-word smash found by audit raises CorruptionError and is
// left in place for delete-transaction recovery.
func TestAuditDoesNotHealWhereReadsAreUnverified(t *testing.T) {
	for _, kind := range []protect.Kind{protect.KindDataCW, protect.KindDeferredCW, protect.KindReadLog, protect.KindCWReadLog} {
		t.Run(kind.String(), func(t *testing.T) {
			db := testDB(t, protect.Config{Kind: kind, RegionSize: 64})
			db.Internals().Arena.Bytes()[500] ^= 0xFF
			damaged := append([]byte(nil), db.Internals().Arena.Bytes()...)
			var ce *CorruptionError
			if err := db.Audit(); !errors.As(err, &ce) || len(ce.Mismatches) != 1 || ce.Mismatches[0].Region != 500/64 {
				t.Fatalf("audit of a single-word smash: %v", err)
			}
			if !bytes.Equal(db.Internals().Arena.Bytes(), damaged) {
				t.Fatal("audit modified the image")
			}
			if m := db.Metrics(); m.Counters[obs.NameHeals] != 0 || db.HealGeneration() != 0 {
				t.Fatalf("heals = %d", m.Counters[obs.NameHeals])
			}
		})
	}
}

// TestAuditEscalatesBeyondRadius: two words of one region smashed with
// distinct deltas are past the correction radius; the audit must report
// CorruptionError exactly as before the ECC tier existed, with the
// escalation counted.
func TestAuditEscalatesBeyondRadius(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64})
	a := db.Internals().Arena.Bytes()
	a[128] ^= 0x01
	a[140] ^= 0x02
	err := db.Audit()
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("audit of double-word damage: %v", err)
	}
	if len(ce.Mismatches) != 1 || ce.Mismatches[0].Region != 2 {
		t.Fatalf("mismatches: %v", ce.Mismatches)
	}
	m := db.Metrics()
	if m.Counters[obs.NameHealEscalations] != 1 {
		t.Fatalf("escalations = %d, want 1", m.Counters[obs.NameHealEscalations])
	}
	if m.Counters[obs.NameHeals] != 0 {
		t.Fatalf("heals = %d, want 0", m.Counters[obs.NameHeals])
	}
}

// TestPrecheckReadHealNotesDirtyPage: a read-path heal mutates the image
// outside the logged update path, so core's OnHeal wiring must mark the
// healed page dirty — otherwise the next checkpoint would never capture
// the repaired bytes (the wild write it undid was never logged).
func TestPrecheckReadHealNotesDirtyPage(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64})
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	opUpdate(t, txn, 1, 4096+32, []byte("resident"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Internals().Arena.Bytes()[4096+33] ^= 0x40 // wild write on page 1
	txn2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txn2.Abort()
	if _, err := txn2.Read(4096+32, 8); err != nil {
		t.Fatalf("read of repairable region: %v", err)
	}
	m := db.Metrics()
	if m.Counters[obs.NamePrecheckHeals] != 1 {
		t.Fatalf("precheck heals = %d, want 1", m.Counters[obs.NamePrecheckHeals])
	}
	if m.Counters[obs.NameHeals] != 1 {
		t.Fatalf("core heals = %d, want 1 (OnHeal not wired?)", m.Counters[obs.NameHeals])
	}
	if db.HealGeneration() != 1 {
		t.Fatal("read-path heal did not bump the heal generation")
	}
}

// TestCheckpointRetakesImageAfterMidWindowHeal builds the corrupt-image
// certification hazard deterministically: a page is made dirty by a
// legitimate update, then wild-written, so the checkpoint's snapshot
// captures the corrupt bytes. The certification audit heals the arena —
// and without the heal-generation retry it would certify the corrupt
// image it no longer sees. The retry must re-take the snapshot (the heal
// marked the page dirty) and certify a clean image, observable as two
// samples of the checkpoint write-phase histogram in one Checkpoint call.
func TestCheckpointRetakesImageAfterMidWindowHeal(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64})
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	opUpdate(t, txn, 1, 200, []byte("dirtying the page"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	writePhases := func() uint64 { return db.Metrics().Histogram(obs.NameCkptWriteNS).Count }
	before := writePhases()
	db.Internals().Arena.Bytes()[208] ^= 0xAA // wild write on the dirty page
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with mid-window heal: %v", err)
	}
	if db.Metrics().Counters[obs.NameHeals] != 1 {
		t.Fatal("certification audit did not heal")
	}
	if got := writePhases() - before; got != 2 {
		t.Fatalf("checkpoint wrote the image %d time(s), want 2 (retry after heal)", got)
	}
	// A second checkpoint sees a stable heal generation: one write.
	before = writePhases()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := writePhases() - before; got != 1 {
		t.Fatalf("quiescent checkpoint wrote %d time(s), want 1", got)
	}
}

// TestConcurrentHealUnderLoad runs prescribed-update load, a background
// auditor, and a wild-write injector together (run under -race by make
// vet). Every injected single-word smash must be healed — the auditor
// never reports corruption — while transactions keep committing.
func TestConcurrentHealUnderLoad(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64})
	a := NewAuditor(db, time.Millisecond)
	var escalated atomic.Int32
	a.OnCorruption = func(*CorruptionError) { escalated.Add(1) }
	a.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: each owns a 1KB slab well away from the injection area.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := mem.Addr(32768 + w*1024)
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 48)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				txn, err := db.Begin()
				if err != nil {
					return // db closing
				}
				rng.Read(buf)
				addr := base + mem.Addr(rng.Intn(1024-len(buf)))
				opUpdate(t, txn, wal.ObjectKey(1000+w), addr, buf)
				if err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Injector: smash words in the low 16KB (no writer touches it), then
	// wait for the auditor's heal before the next shot so each injection
	// is a clean single-word experiment.
	rng := rand.New(rand.NewSource(99))
	arena := db.Internals().Arena.Bytes()
	const shots = 25
	for i := 0; i < shots; i++ {
		addr := rng.Intn(16384/8) * 8
		w := arena[addr : addr+8]
		binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)^(1+rng.Uint64()%0xFFFF))
		deadline := time.Now().Add(10 * time.Second)
		for db.Metrics().Counters[obs.NameHeals] < uint64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("shot %d never healed", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(stop)
	wg.Wait()
	a.Stop()
	if n := escalated.Load(); n != 0 {
		t.Fatalf("%d corruption escalations under single-word load, want 0", n)
	}
	if err := db.Audit(); err != nil {
		t.Fatalf("final audit: %v", err)
	}
	if got := db.Metrics().Counters[obs.NameHeals]; got < shots {
		t.Fatalf("heals = %d, want >= %d", got, shots)
	}
}
