// Package faultstudy runs randomized fault-injection campaigns against
// each protection scheme and tabulates the outcomes — this repository's
// analogue of the Ng & Chen study the paper leans on (§4, §6: injected
// faults corrupted persistent data in ~2.5% of crashes regardless of
// interface, motivating detection and recovery rather than prevention
// alone). Here the faults always target protected data, and the question
// is each scheme's response: does the write get trapped, does an audit
// detect it, does a precheck prevent the carry, is the carry traced and
// deleted, or does corruption survive unnoticed?
package faultstudy

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/benchtab"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/heap"
	"repro/internal/protect"
	"repro/internal/recovery"
)

// Outcome aggregates campaign results for one scheme.
type Outcome struct {
	Scheme    string
	Campaigns int
	// Trapped: the wild write itself was prevented (hardware protection).
	Trapped int
	// Prevented: a read precheck refused corrupt data before any carry.
	Prevented int
	// Detected: a full audit flagged the corruption.
	Detected int
	// Recovered: delete-transaction (or restart) recovery produced an
	// image whose final audit is clean.
	Recovered int
	// DeletedTxns: transactions removed from history across campaigns.
	DeletedTxns int
	// Undetected: corruption survived in the image with no signal — the
	// baseline's fate, and what the paper argues must never be accepted.
	Undetected int
}

// Config parameterizes a study.
type Config struct {
	// Campaigns per scheme (default 20).
	Campaigns int
	// TxnsPerCampaign is the number of carrier transactions run after the
	// fault (default 8).
	TxnsPerCampaign int
	// Seed makes the study reproducible.
	Seed int64
	// WorkDir for scratch databases (default: system temp).
	WorkDir string
}

func (c Config) withDefaults() Config {
	if c.Campaigns == 0 {
		c.Campaigns = 20
	}
	if c.TxnsPerCampaign == 0 {
		c.TxnsPerCampaign = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Schemes returns the study's scheme configurations. Healing is
// disabled: this study reproduces the paper's detect/prevent/recover
// ladder, and an ECC repair would silently absorb the injected fault
// before the schemes' responses could be observed. The correction tier
// has its own campaign (RunHeal).
func Schemes() []protect.Config {
	return []protect.Config{
		{Kind: protect.KindBaseline},
		{Kind: protect.KindDataCW, RegionSize: 64, DisableHeal: true},
		{Kind: protect.KindPrecheck, RegionSize: 64, DisableHeal: true},
		{Kind: protect.KindReadLog, RegionSize: 64, DisableHeal: true},
		{Kind: protect.KindCWReadLog, RegionSize: 64, DisableHeal: true},
		{Kind: protect.KindDeferredCW, RegionSize: 64, DisableHeal: true},
		{Kind: protect.KindHW, ForceSimProtect: true},
	}
}

// Run executes the study.
func Run(cfg Config) ([]Outcome, error) {
	cfg = cfg.withDefaults()
	var out []Outcome
	for _, pc := range Schemes() {
		o := Outcome{Campaigns: cfg.Campaigns}
		for c := 0; c < cfg.Campaigns; c++ {
			seed := cfg.Seed + int64(c)*7919
			res, err := campaign(cfg, pc, seed)
			if err != nil {
				return nil, fmt.Errorf("faultstudy: %v campaign %d: %w", pc.Kind, c, err)
			}
			if o.Scheme == "" {
				o.Scheme = res.schemeName
			}
			o.Trapped += b2i(res.trapped)
			o.Prevented += b2i(res.prevented)
			o.Detected += b2i(res.detected)
			o.Recovered += b2i(res.recovered)
			o.DeletedTxns += res.deleted
			o.Undetected += b2i(res.undetected)
		}
		out = append(out, o)
	}
	return out, nil
}

type campaignResult struct {
	schemeName string
	trapped    bool
	prevented  bool
	detected   bool
	recovered  bool
	undetected bool
	deleted    int
}

// campaign runs one fault injection against one scheme.
func campaign(cfg Config, pc protect.Config, seed int64) (res campaignResult, err error) {
	dir, err := os.MkdirTemp(cfg.WorkDir, "faultstudy-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(seed))

	const slots = 32
	dbcfg := core.Config{Dir: dir, ArenaSize: 1 << 19, Protect: pc}
	db, err := core.Open(dbcfg)
	if err != nil {
		return res, err
	}
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()
	res.schemeName = db.Scheme().Name()
	cat, err := heap.Open(db)
	if err != nil {
		return res, err
	}
	tb, err := cat.CreateTable("t", 64, slots)
	if err != nil {
		return res, err
	}
	setup, _ := db.Begin()
	for i := 0; i < slots; i++ {
		rec := make([]byte, 64)
		rec[0] = byte(i + 1)
		if _, err := tb.Insert(setup, rec); err != nil {
			return res, err
		}
	}
	if err := setup.Commit(); err != nil {
		return res, err
	}
	if err := db.Checkpoint(); err != nil {
		return res, err
	}

	// The fault.
	victim := uint32(rng.Intn(slots))
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), seed)
	inj.SetRegistry(db.Observability())
	trapped, err := inj.WildWrite(tb.RecordAddr(victim)+20, []byte{0xF0 ^ byte(victim+1), 0x0D})
	if err != nil {
		return res, err
	}
	if trapped {
		res.trapped = true
		res.recovered = true // nothing to recover from
		return res, nil
	}

	// Carrier transactions; the first one deliberately reads the victim
	// so every campaign exposes the corruption to a reader.
	for i := 0; i < cfg.TxnsPerCampaign; i++ {
		txn, err := db.Begin()
		if err != nil {
			return res, err
		}
		readSlot := uint32(rng.Intn(slots))
		if i == 0 {
			readSlot = victim
		}
		_, rerr := tb.Read(txn, heap.RID{Table: tb.ID, Slot: readSlot})
		if errors.Is(rerr, protect.ErrPrecheckFailed) {
			res.prevented = true
			txn.Abort()
			break
		}
		if rerr != nil {
			txn.Abort()
			return res, rerr
		}
		writeSlot := uint32(rng.Intn(slots))
		if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: writeSlot}, 0, []byte{byte(i), 0xAA}); err != nil {
			txn.Abort()
			return res, err
		}
		if err := txn.Commit(); err != nil {
			return res, err
		}
	}

	if res.prevented {
		// Cache recovery repairs in place (§4.2): no transaction carried
		// the corruption.
		if err := recovery.CacheRecover(db, []recovery.Range{
			{Start: tb.RecordAddr(victim), Len: 64},
		}); err != nil {
			return res, err
		}
		res.recovered = db.Audit() == nil
		res.detected = true
		return res, nil
	}

	// Audit-based detection.
	auditErr := db.Audit()
	var ce *core.CorruptionError
	switch {
	case errors.As(auditErr, &ce):
		res.detected = true
	case auditErr == nil:
		if !pc.Kind.LogsCodewords() {
			// No codewords (baseline) or corruption not visible: the
			// corruption survives unnoticed.
			res.undetected = true
			return res, nil
		}
		// CW read logging detects at restart even without an audit.
	default:
		return res, auditErr
	}

	// Crash and recover.
	if err := db.Crash(); err != nil {
		return res, err
	}
	closed = true
	db2, rep, err := recovery.Open(dbcfg, recovery.Options{})
	if err != nil {
		return res, err
	}
	defer db2.Close()
	res.deleted = len(rep.Deleted)
	if pc.Kind.LogsCodewords() && !res.detected && len(rep.Deleted) > 0 {
		res.detected = true // detected at restart from read-log codewords
	}
	res.recovered = db2.Audit() == nil
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FormatOutcomes renders the study as a table.
func FormatOutcomes(outcomes []Outcome) string {
	var rows [][]string
	for _, o := range outcomes {
		rows = append(rows, []string{
			o.Scheme,
			fmt.Sprint(o.Campaigns),
			fmt.Sprint(o.Trapped),
			fmt.Sprint(o.Prevented),
			fmt.Sprint(o.Detected),
			fmt.Sprint(o.Recovered),
			fmt.Sprint(o.DeletedTxns),
			fmt.Sprint(o.Undetected),
		})
	}
	return benchtab.Format([]string{
		"Scheme", "Campaigns", "Trapped", "Precheck-prevented",
		"Detected", "Recovered-clean", "Deleted-txns", "UNDETECTED",
	}, rows)
}
