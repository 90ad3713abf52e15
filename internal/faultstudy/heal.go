// The heal campaign: the correction-tier counterpart of the detection
// study. Where faultstudy.Run asks "does each scheme's response ladder
// fire?", RunHeal asks "does the ECC tier silently repair what it
// claims to, and escalate what it must?" — each targeted damage shape
// lands on a known rung of the ladder:
//
//	single-bit       → repairable (smallest syndrome)
//	single-word      → repairable (the canonical wild write)
//	double-word      → unrepairable, escalates to delete-transaction recovery
//	equal-delta-pair → unrepairable; cancels in the codeword, so only
//	                   Diagnose sees it
//	memset-run       → unrepairable (3–6 contiguous words, one delta)
//	record-overrun   → one delta at a record's stride: unrepairable where
//	                   two or more hits share a region, repaired where each
//	                   region holds one
//	parity-column    → S1 damage, data intact: unrepairable, escalates
//
// Healing in place happens only under Read Prechecking (its read path and
// its audits); under Data CW and Deferred CW every cell escalates. Each
// injection ends in exactly one of four outcomes: healed byte-exact,
// healed wrong, escalated (crash + restart recovery, checked byte-exact
// after), or undetected (the audit and Diagnose both clean after damage).
// A cell passes (HealOutcome.Pass) when nothing healed wrong, every
// escalation recovered clean, nothing went undetected at 64 B and 512 B
// regions — for W ≤ 64 no damage pattern here can hide from S1 — and:
// under Precheck at least 99% of single-bit and single-word injections
// healed with no deleted transactions; elsewhere every injection
// escalated.
package faultstudy

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/benchtab"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/region"
)

// HealShape names one targeted damage shape of the campaign.
type HealShape string

// The campaign's damage shapes.
const (
	ShapeSingleBit  HealShape = "single-bit"
	ShapeSingleWord HealShape = "single-word"
	ShapeDoubleWord HealShape = "double-word"
	ShapeEqualPair  HealShape = "equal-delta-pair"
	ShapeMemsetRun  HealShape = "memset-run"
	ShapeRecordOver HealShape = "record-overrun"
	ShapeParity     HealShape = "parity-column"
)

// healShapes lists the campaign's shapes in report order.
func healShapes() []HealShape {
	return []HealShape{ShapeSingleBit, ShapeSingleWord, ShapeDoubleWord,
		ShapeEqualPair, ShapeMemsetRun, ShapeRecordOver, ShapeParity}
}

// healSchemes returns the ECC-bearing scheme configurations the heal
// campaign runs against (healing on — the default).
func healSchemes() []protect.Config {
	return []protect.Config{
		{Kind: protect.KindDataCW, RegionSize: 512},
		{Kind: protect.KindPrecheck, RegionSize: 64},
		{Kind: protect.KindDeferredCW, RegionSize: 512},
	}
}

// HealConfig parameterizes a heal campaign.
type HealConfig struct {
	// Injections per scheme x shape (default 50).
	Injections int
	// Carriers is the number of carrier transactions run between each
	// injection and the audit (default 4).
	Carriers int
	// Seed makes the campaign reproducible.
	Seed int64
	// WorkDir for scratch databases (default: system temp).
	WorkDir string
}

func (c HealConfig) withDefaults() HealConfig {
	if c.Injections == 0 {
		c.Injections = 50
	}
	if c.Carriers == 0 {
		c.Carriers = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// HealOutcome aggregates one scheme x shape cell of the campaign.
type HealOutcome struct {
	Scheme     string    `json:"scheme"`
	Shape      HealShape `json:"shape"`
	Injections int       `json:"injections"`
	// Healed: repaired in place and the damaged words verified
	// byte-identical to their pre-damage contents.
	Healed int `json:"healed"`
	// HealedWrong: a repair fired and the audit and Diagnose then came
	// back clean, but the damaged words differ from their pre-damage
	// contents — corruption laundered.
	HealedWrong int `json:"healed_wrong"`
	// Undetected: no repair fired, and after the damage both the audit
	// and Diagnose of the damaged regions came back clean.
	Undetected int `json:"undetected"`
	// Escalated: the audit or Diagnose reported damage the ECC tier did
	// not repair, and the database went through crash + delete-transaction
	// recovery.
	Escalated int `json:"escalated"`
	// RecoveredClean: escalations after which the audit and Diagnose were
	// clean and the damaged words byte-identical to their pre-damage
	// contents.
	RecoveredClean int `json:"recovered_clean"`
	// DeletedTxns: transactions deleted by escalation recoveries.
	DeletedTxns int `json:"deleted_txns"`
	// HealRate = Healed / Injections.
	HealRate float64 `json:"heal_rate"`
	// Repair latency of the in-place heals, from core.heal_ns.
	HealP50Ns uint64 `json:"heal_p50_ns"`
	HealP99Ns uint64 `json:"heal_p99_ns"`
	// Pass: the cell met its bar (see the package comment of heal.go).
	Pass bool `json:"pass"`
}

// tabler is implemented by every ECC-bearing scheme; the shapes need the
// table to place words in regions and to corrupt S1.
type tabler interface {
	Table() *region.Table
}

// RunHeal executes the heal campaign: every scheme x shape cell.
func RunHeal(cfg HealConfig) ([]HealOutcome, error) {
	cfg = cfg.withDefaults()
	var out []HealOutcome
	for _, pc := range healSchemes() {
		for _, shape := range healShapes() {
			o, err := healCell(cfg, pc, shape)
			if err != nil {
				return nil, fmt.Errorf("faultstudy: heal %v/%s: %w", pc.Kind, shape, err)
			}
			out = append(out, o)
		}
	}
	return out, nil
}

// damage is one injection's footprint: the words hit (with their
// pre-damage contents) and the regions that hold them.
type damage struct {
	words   []mem.Addr
	pre     [][]byte
	regions []int
}

// intact reports whether every damaged word holds its pre-damage bytes.
func (d *damage) intact(a *mem.Arena) bool {
	for i, w := range d.words {
		if !bytes.Equal(a.Slice(w, 8), d.pre[i]) {
			return false
		}
	}
	return true
}

// shapeWords picks the words a shape hits. Every word sits inside a
// record body at offset 8 or beyond, which no carrier writes: carriers
// update only the first bytes of other records. Except for the record
// overrun, the words stay inside the victim's record and region.
func shapeWords(shape HealShape, rng *rand.Rand, tb *heap.Table, victim uint32, recBytes int) []mem.Addr {
	rec := tb.RecordAddr(victim)
	w := rec + mem.Addr(8*(2+rng.Intn(recBytes/8-3))) // words 2..recBytes/8-2
	switch shape {
	case ShapeDoubleWord, ShapeEqualPair:
		return []mem.Addr{w, w + 8}
	case ShapeMemsetRun:
		n := 3 + rng.Intn(recBytes/8-4) // 3..recBytes/8-2 words from word 1
		run := make([]mem.Addr, n)
		for i := range run {
			run[i] = rec + mem.Addr(8*(1+i))
		}
		return run
	case ShapeRecordOver:
		hits := make([]mem.Addr, 2+rng.Intn(3)) // the victim and 1..3 records after it
		for i := range hits {
			hits[i] = w + mem.Addr(i*recBytes)
		}
		return hits
	case ShapeParity:
		return nil
	}
	return []mem.Addr{w}
}

// healCell runs one scheme x shape cell on one database: inject, run
// carriers, detect with the audit and then Diagnose (which sees what the
// codeword cancels), and either verify a heal or escalate through crash +
// restart recovery.
func healCell(cfg HealConfig, pc protect.Config, shape HealShape) (o HealOutcome, err error) {
	o.Shape = shape
	o.Injections = cfg.Injections

	dir, err := os.MkdirTemp(cfg.WorkDir, "healstudy-*")
	if err != nil {
		return o, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(len(shape))*104729))

	const slots = 64
	const recBytes = 64
	dbcfg := core.Config{Dir: dir, ArenaSize: 1 << 19, Protect: pc}
	db, tb, err := healSetup(dbcfg, slots, recBytes)
	if err != nil {
		return o, err
	}
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	o.Scheme = db.Scheme().Name()

	for i := 0; i < o.Injections; i++ {
		inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), cfg.Seed+int64(i))
		inj.SetRegistry(db.Observability())
		victim := uint32(rng.Intn(slots - 4)) // room for an overrun after it
		tab := db.Scheme().(tabler).Table()
		a := db.Internals().Arena
		var dmg damage
		dmg.words = shapeWords(shape, rng, tb, victim, recBytes)
		for _, w := range dmg.words {
			dmg.pre = append(dmg.pre, append([]byte(nil), a.Slice(w, 8)...))
			if r := tab.RegionOf(w); len(dmg.regions) == 0 || dmg.regions[len(dmg.regions)-1] != r {
				dmg.regions = append(dmg.regions, r)
			}
		}

		switch shape {
		case ShapeSingleBit:
			_, err = inj.SingleBitFlip(dmg.words[0], uint(rng.Intn(8)))
		case ShapeSingleWord:
			_, err = inj.WordSmash(dmg.words[0], rng.Uint64())
		case ShapeDoubleWord:
			_, err = inj.DoubleWordSmash(dmg.words[0], dmg.words[1], rng.Uint64(), rng.Uint64())
		case ShapeParity:
			r := tab.RegionOf(tb.RecordAddr(victim))
			dmg.regions = []int{r}
			err = inj.ParityHit(tab, r, 0, rng.Uint64())
		default:
			_, err = inj.SameDeltaWords(dmg.words, rng.Uint64())
		}
		if err != nil {
			return o, err
		}

		heals0 := healCount(db)
		// Carrier transactions touch other slots: the engine keeps
		// running over the damaged image exactly as production would.
		for c := 0; c < cfg.Carriers; c++ {
			if err := healCarrier(db, tb, rng, slots, victim); err != nil {
				return o, err
			}
		}
		// Detection: the audit compares codewords (and heals under
		// Precheck); Diagnose — the sweep dbcheck runs — also reads S1,
		// so it sees what the codeword cancels.
		var extra []recovery.Range
		escalate := false
		if err := db.Audit(); err != nil {
			var ce *core.CorruptionError
			if !errors.As(err, &ce) {
				return o, err
			}
			escalate = true // the failed audit's ranges are in the log
		} else {
			for _, r := range dmg.regions {
				if db.Scheme().Diagnose(r).Verdict != region.VerdictClean {
					extra = append(extra, recovery.Range{Start: tab.RegionStart(r), Len: tab.RegionSize()})
				}
			}
			escalate = len(extra) > 0
		}
		healed := healCount(db) > heals0
		switch {
		case escalate:
			// The paper's reaction: crash, then restart recovery deletes
			// the transactions that touched the corrupt regions.
			o.Escalated++
			db, tb, err = healEscalate(db, dbcfg, &o, extra, &dmg)
			if err != nil {
				return o, err
			}
		case !dmg.intact(a) && healed:
			o.HealedWrong++
		case !dmg.intact(a):
			o.Undetected++
		case healed:
			o.Healed++
		default:
			return o, fmt.Errorf("injection %d: damage vanished with nothing healed", i)
		}
	}

	m := db.Metrics()
	if h, ok := m.Histograms[obs.NameHealNS]; ok && h.Count > 0 {
		o.HealP50Ns = h.Quantile(0.5)
		o.HealP99Ns = h.Quantile(0.99)
	}
	o.HealRate = float64(o.Healed) / float64(o.Injections)
	o.Pass = o.HealedWrong == 0 && o.RecoveredClean == o.Escalated &&
		(o.Undetected == 0 || pc.RegionSize > 512)
	switch {
	case !pc.Kind.VerifiesReads():
		o.Pass = o.Pass && o.Escalated == o.Injections
	case shape == ShapeSingleBit || shape == ShapeSingleWord:
		o.Pass = o.Pass && o.HealRate >= 0.99 && o.DeletedTxns == 0
	}
	return o, nil
}

// healSetup creates a fresh database with a populated heap table and a
// certified checkpoint.
func healSetup(dbcfg core.Config, slots, recBytes int) (*core.DB, *heap.Table, error) {
	db, err := core.Open(dbcfg)
	if err != nil {
		return nil, nil, err
	}
	cat, err := heap.Open(db)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	tb, err := cat.CreateTable("t", recBytes, slots)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	setup, err := db.Begin()
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	for i := 0; i < slots; i++ {
		rec := make([]byte, recBytes)
		for j := range rec {
			rec[j] = byte(i + j)
		}
		if _, err := tb.Insert(setup, rec); err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	if err := setup.Commit(); err != nil {
		db.Close()
		return nil, nil, err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, tb, nil
}

// healCarrier runs one read+update transaction over non-victim slots.
func healCarrier(db *core.DB, tb *heap.Table, rng *rand.Rand, slots int, victim uint32) error {
	txn, err := db.Begin()
	if err != nil {
		return err
	}
	slot := uint32(rng.Intn(slots))
	if slot == victim {
		slot = (slot + 1) % uint32(slots)
	}
	if _, err := tb.Read(txn, heap.RID{Table: tb.ID, Slot: slot}); err != nil {
		txn.Abort()
		if errors.Is(err, protect.ErrPrecheckFailed) {
			// A spanning read hit unrepairable damage: the precheck
			// refused it, exactly as §3.1 requires. The audit below
			// escalates.
			return nil
		}
		return err
	}
	if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: slot}, 0, []byte{byte(rng.Intn(256)), 0xAA}); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

// healEscalate crashes the corrupt database, runs restart recovery
// (which deletes the transactions that touched the corrupt regions — the
// failed audit's, or extra when only Diagnose saw the damage), checks the
// damage is gone byte-exact, and reopens a fresh handle for the rest of
// the cell.
func healEscalate(db *core.DB, dbcfg core.Config, o *HealOutcome, extra []recovery.Range, dmg *damage) (*core.DB, *heap.Table, error) {
	if err := db.Crash(); err != nil {
		return nil, nil, err
	}
	db2, rep, err := recovery.Open(dbcfg, recovery.Options{ExtraCorrupt: extra})
	if err != nil {
		return nil, nil, err
	}
	o.DeletedTxns += len(rep.Deleted)
	clean := db2.Audit() == nil && dmg.intact(db2.Internals().Arena)
	for _, r := range dmg.regions {
		clean = clean && db2.Scheme().Diagnose(r).Verdict == region.VerdictClean
	}
	if clean {
		o.RecoveredClean++
	}
	cat, err := heap.Open(db2)
	if err != nil {
		db2.Close()
		return nil, nil, err
	}
	tb, err := cat.Table("t")
	if err != nil {
		db2.Close()
		return nil, nil, err
	}
	return db2, tb, nil
}

// healCount reads the database's in-place repair total.
func healCount(db *core.DB) uint64 {
	return db.Metrics().Counters[obs.NameHeals]
}

// FormatHealOutcomes renders the heal campaign as a table.
func FormatHealOutcomes(outcomes []HealOutcome) string {
	var rows [][]string
	for _, o := range outcomes {
		rows = append(rows, []string{
			o.Scheme,
			string(o.Shape),
			fmt.Sprint(o.Injections),
			fmt.Sprint(o.Healed),
			fmt.Sprintf("%.1f%%", o.HealRate*100),
			fmt.Sprint(o.HealedWrong),
			fmt.Sprint(o.Undetected),
			fmt.Sprint(o.Escalated),
			fmt.Sprint(o.RecoveredClean),
			fmt.Sprint(o.DeletedTxns),
			fmt.Sprint(o.HealP50Ns),
			fmt.Sprint(o.HealP99Ns),
			map[bool]string{true: "ok", false: "FAIL"}[o.Pass],
		})
	}
	return benchtab.Format([]string{
		"Scheme", "Shape", "Injections", "Healed", "Heal-rate", "Healed-wrong", "Undetected",
		"Escalated", "Recovered-clean", "Deleted-txns", "p50-ns", "p99-ns", "Bar",
	}, rows)
}
