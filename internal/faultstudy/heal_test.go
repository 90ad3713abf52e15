package faultstudy

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/recovery"
)

// TestHealCampaignOutcomes pins the heal campaign's ladder per cell:
// nothing is ever healed wrong or left undetected, and every escalation
// recovers byte-exact. Under Precheck, single-bit and single-word damage
// is healed in place on every injection with zero delete-transaction
// recoveries, and the multi-word shapes confined to one region (and S1
// damage) always escalate; under Data CW and Deferred CW, where a reader
// may have seen the damage before the audit, every injection escalates.
func TestHealCampaignOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("heal campaign is slow")
	}
	outcomes, err := RunHeal(HealConfig{Injections: 8, Carriers: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(healSchemes()) * len(healShapes()); len(outcomes) != want {
		t.Fatalf("outcomes = %d, want %d", len(outcomes), want)
	}
	for _, o := range outcomes {
		if !o.Pass || o.HealedWrong != 0 || o.Undetected != 0 || o.RecoveredClean != o.Escalated {
			t.Errorf("%s/%s: %+v", o.Scheme, o.Shape, o)
		}
		if o.Healed+o.HealedWrong+o.Undetected+o.Escalated != o.Injections {
			t.Errorf("%s/%s: outcomes do not add up: %+v", o.Scheme, o.Shape, o)
		}
		switch {
		case !strings.Contains(o.Scheme, "Precheck"):
			if o.Escalated != o.Injections {
				t.Errorf("%s/%s: escalated %d/%d, want all (no heal where reads are unverified)",
					o.Scheme, o.Shape, o.Escalated, o.Injections)
			}
		case o.Shape == ShapeSingleBit || o.Shape == ShapeSingleWord:
			if o.Healed != o.Injections || o.HealRate != 1.0 || o.Escalated != 0 || o.DeletedTxns != 0 {
				t.Errorf("%s/%s: healed %d/%d escalated %d deleted %d, want in-place repair only",
					o.Scheme, o.Shape, o.Healed, o.Injections, o.Escalated, o.DeletedTxns)
			}
		case o.Shape == ShapeRecordOver:
			// 64-byte regions hold one record each, so every region an
			// overrun hits has one damaged word: healed, or escalated when
			// a precheck read refused the region first. Never wrong.
		default:
			if o.Escalated != o.Injections {
				t.Errorf("%s/%s: escalated %d/%d, want all (damage past the correction radius)",
					o.Scheme, o.Shape, o.Escalated, o.Injections)
			}
		}
	}
	tblStr := FormatHealOutcomes(outcomes)
	if !strings.Contains(tblStr, "Heal-rate") {
		t.Fatalf("table missing header:\n%s", tblStr)
	}
}

// TestHealTortureVsCheckpoint crash-tortures healing against
// checkpointing: at every iteration a wild write lands on a freshly
// dirtied page, a checkpoint runs (its certification audit heals
// mid-window, forcing the image retake), and then the database crashes.
// Restart recovery from that checkpoint must always produce a clean,
// auditable image — the checkpoint must never have certified the
// corrupt capture.
func TestHealTortureVsCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is slow")
	}
	dir := t.TempDir()
	dbcfg := core.Config{
		Dir:       dir,
		ArenaSize: 1 << 18,
		Protect:   protect.Config{Kind: protect.KindPrecheck, RegionSize: 512},
	}
	db, err := core.Open(dbcfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := heap.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cat.CreateTable("t", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		rec := make([]byte, 64)
		rec[0] = byte(i + 1)
		if _, err := tb.Insert(setup, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	const rounds = 12
	for i := 0; i < rounds; i++ {
		// Dirty the victim's page through the prescribed interface...
		slot := uint32(i % 64)
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: slot}, 0, []byte{byte(i), 0xC4}); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		// ...then wild-write the same record so the checkpoint's first
		// snapshot captures corrupt bytes, and checkpoint: the
		// certification audit heals and the retry loop must retake the
		// image before certifying.
		db.Internals().Arena.Bytes()[tb.RecordAddr(slot)+17] ^= 0x3C
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("round %d: checkpoint: %v", i, err)
		}
		// Crash; restart recovery replays from the just-certified image.
		if err := db.Crash(); err != nil {
			t.Fatal(err)
		}
		db2, _, err := recovery.Open(dbcfg, recovery.Options{})
		if err != nil {
			t.Fatalf("round %d: recovery: %v", i, err)
		}
		if err := db2.Audit(); err != nil {
			t.Fatalf("round %d: post-recovery audit: %v (checkpoint certified a corrupt image?)", i, err)
		}
		db = db2
		cat, err = heap.Open(db)
		if err != nil {
			t.Fatal(err)
		}
		tb, err = cat.Table("t")
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Metrics().Counters[obs.NameHeals]; got != 0 {
		// Heals happen pre-crash in the old handles; the recovered handle
		// starts clean. Just make sure recovery didn't need to heal.
		t.Fatalf("recovered handle healed %d times, want 0", got)
	}
	db.Close()
}
