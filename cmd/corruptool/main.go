// Command corruptool runs an end-to-end corruption campaign against a
// scratch database and walks through the paper's §4 machinery step by
// step: it populates a TPC-B database under a chosen protection scheme,
// injects wild writes, lets transactions carry the corruption, detects it
// (by audit, read precheck, or the codeword-in-read-log variant at
// restart), crashes the database, runs delete-transaction recovery, and
// prints which transactions were deleted from history and what data was
// traced as corrupt.
//
// With -tear-ckpt-page it instead demonstrates the storage-side defence:
// it tears a page of the current checkpoint image on disk (as a lying
// write would), shows the per-page codeword table refusing the image, and
// recovers from the older ping-pong image plus retained log.
//
// With -heal it demonstrates the error-correction tier instead: it
// injects one fault of each shape (single-word smash, stale parity
// plane, double-word smash), prints the consistency checker's CW06x
// report before healing, heals, prints the report after — repairable
// damage gone, unrepairable damage escalated through crash and
// delete-transaction recovery.
//
// Usage:
//
//	corruptool [-scheme readlog|cwreadlog|precheck|datacw|deferredcw] [-faults N] [-carriers N] [-seed N] [-dir DIR]
//	corruptool -tear-ckpt-page [-seed N] [-dir DIR]
//	corruptool -heal [-seed N] [-dir DIR]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/heap"
	"repro/internal/iofault"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/region"
	"repro/internal/tpcb"
)

func main() {
	schemeName := flag.String("scheme", "readlog", "protection scheme with codewords: datacw, precheck, readlog, cwreadlog, deferredcw")
	faults := flag.Int("faults", 2, "wild writes to inject")
	carriers := flag.Int("carriers", 3, "carrier transactions (each reads a faulted record and writes elsewhere)")
	seed := flag.Int64("seed", 1, "fault injection seed")
	dir := flag.String("dir", "", "database directory (default: a temp dir)")
	tearCkpt := flag.Bool("tear-ckpt-page", false, "tear a page of the current checkpoint image and recover from the fallback")
	heal := flag.Bool("heal", false, "demonstrate the error-correction tier: inject every damage shape, show the CW06x report before and after healing")
	flag.Parse()

	var err error
	switch {
	case *tearCkpt:
		err = runTearCkptPage(*seed, *dir)
	case *heal:
		err = runHeal(*seed, *dir)
	default:
		err = run(*schemeName, *faults, *carriers, *seed, *dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "corruptool:", err)
		os.Exit(1)
	}
}

// runTearCkptPage builds a database with two checkpoint generations,
// crashes it, corrupts half of the anchored image's first page on disk —
// the durable state a torn or interrupted page write leaves behind — and
// walks through detection (per-page codeword table) and recovery (the
// other ping-pong image plus log replay from its older CK_end).
func runTearCkptPage(seed int64, dir string) error {
	if dir == "" {
		d, err := os.MkdirTemp("", "corruptool-tear-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	scale := tpcb.SmallScale
	cfg := core.Config{
		Dir:       dir,
		ArenaSize: scale.ArenaSize(),
		Protect:   protect.Config{Kind: protect.KindDataCW, RegionSize: 512},
		// The fallback image is one checkpoint older; recovery from it
		// needs the log records compaction would normally discard.
		DisableLogCompaction: true,
	}

	fmt.Printf("== setup: datacw scheme, database in %s\n", dir)
	db, err := core.Open(cfg)
	if err != nil {
		return err
	}
	w, err := tpcb.Setup(db, scale, seed)
	if err != nil {
		return err
	}
	if err := w.Run(200); err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	if err := w.Run(200); err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	fmt.Println("   ran 400 operations across two checkpoints (both ping-pong images populated)")
	pageSize := db.Internals().Arena.PageSize()
	if err := db.Crash(); err != nil {
		return err
	}

	loaded, err := ckpt.Load(iofault.OS, dir)
	if err != nil {
		return fmt.Errorf("pre-corruption load (should be clean): %w", err)
	}
	cur := loaded.Anchor.Current
	img := filepath.Join(dir, ckpt.ImageFileName(cur))
	f, err := os.OpenFile(img, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	// Invert one aligned word mid-page. (A whole torn half would also be
	// caught when it held data, but this demo must corrupt unconditionally:
	// the page XOR codeword is blind to changes that cancel word-wise, and
	// flipping a single word can never cancel.)
	word := make([]byte, 8)
	if _, err := f.ReadAt(word, int64(pageSize/2)); err != nil {
		f.Close()
		return err
	}
	for i := range word {
		word[i] ^= 0xFF
	}
	if _, err := f.WriteAt(word, int64(pageSize/2)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("== fault: corrupted a word mid-page-0 of %s (as a torn or misdirected write would)\n",
		ckpt.ImageFileName(cur))

	fmt.Println("== detection: loading the anchored image")
	if _, err := ckpt.Load(iofault.OS, dir); !errors.Is(err, ckpt.ErrImageCorrupt) {
		return fmt.Errorf("torn image loaded without complaint (err=%v) — page codewords missed it", err)
	}
	fmt.Println("   per-page codeword table REFUSED the image (ErrImageCorrupt)")

	fmt.Println("== restart: recovery with image fallback")
	db2, rep, err := recovery.Open(cfg, recovery.Options{})
	if err != nil {
		return err
	}
	defer db2.Close()
	if !rep.UsedFallbackImage {
		return fmt.Errorf("recovery did not report using the fallback image")
	}
	fmt.Printf("   fell back to %s; scanned %d log records from CK_end=%d, applied %d redo records\n",
		ckpt.ImageFileName(1-cur), rep.RecordsScanned, rep.ScanStart, rep.RedoApplied)
	if err := db2.Audit(); err != nil {
		return fmt.Errorf("post-recovery audit failed: %w", err)
	}
	fmt.Println("== verification: post-recovery full audit CLEAN; no committed work lost")
	return nil
}

func run(schemeName string, faults, carriers int, seed int64, dir string) error {
	kind, err := protect.ParseKind(schemeName)
	if err != nil {
		return err
	}
	if !kind.HasCodewords() {
		return fmt.Errorf("scheme %q keeps no codewords: there is nothing to detect the fault with", schemeName)
	}
	// Healing is off in the classic walkthrough: it demonstrates the
	// paper's detect/carry/delete-transaction ladder, which an in-place
	// ECC repair would short-circuit. The -heal mode demonstrates the
	// correction tier with healing on.
	pc := protect.Config{Kind: kind, DisableHeal: true}
	if dir == "" {
		d, err := os.MkdirTemp("", "corruptool-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	scale := tpcb.SmallScale
	cfg := core.Config{Dir: dir, ArenaSize: scale.ArenaSize(), Protect: pc}

	fmt.Printf("== setup: %s scheme, database in %s\n", schemeName, dir)
	db, err := core.Open(cfg)
	if err != nil {
		return err
	}
	w, err := tpcb.Setup(db, scale, seed)
	if err != nil {
		return err
	}
	if err := w.Run(1000); err != nil {
		return err
	}
	// A clean audit here advances Audit_SN past the clean run: recovery
	// conservatively treats everything after the last clean audit as
	// potentially corrupt, so audit frequency bounds how many innocent
	// transactions the delete-transaction model sacrifices.
	if err := db.Audit(); err != nil {
		return fmt.Errorf("clean-run audit: %w", err)
	}
	fmt.Printf("   loaded %d accounts, ran 1000 clean operations, audited clean\n", scale.Accounts)

	account, _, _, _ := w.Tables()
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), seed)
	inj.SetRegistry(db.Observability())
	victims := make([]heap.RID, 0, faults)
	for i := 0; i < faults; i++ {
		slot := uint32(13 + 7*i)
		addr := account.RecordAddr(slot) + 12
		trapped, err := inj.WildWrite(addr, []byte{0xDE, 0xAD})
		if err != nil {
			return err
		}
		fmt.Printf("== fault %d: wild write at account slot %d (addr %d), trapped=%v\n", i+1, slot, addr, trapped)
		if !trapped {
			victims = append(victims, heap.RID{Table: account.ID, Slot: slot})
		}
	}

	fmt.Printf("== carriers: %d transactions read faulted records and write elsewhere\n", carriers)
	var carrierIDs []uint64
	for i := 0; i < carriers && len(victims) > 0; i++ {
		txn, err := db.Begin()
		if err != nil {
			return err
		}
		victim := victims[i%len(victims)]
		v, err := account.Read(txn, victim)
		if errors.Is(err, protect.ErrPrecheckFailed) {
			fmt.Printf("   carrier %d: read precheck PREVENTED the corrupt read: %v\n", i+1, err)
			txn.Abort()
			fmt.Println("== prechecking stopped the carry; repairing in place with cache recovery")
			return cacheRepair(db, account, victims)
		}
		if err != nil {
			txn.Abort()
			return err
		}
		dst := heap.RID{Table: account.ID, Slot: 100 + uint32(i)}
		if err := account.Update(txn, dst, 0, v[:8]); err != nil {
			txn.Abort()
			return err
		}
		if err := txn.Commit(); err != nil {
			return err
		}
		carrierIDs = append(carrierIDs, uint64(txn.ID()))
		fmt.Printf("   carrier %d: txn %d read slot %d and wrote slot %d (COMMITTED)\n",
			i+1, txn.ID(), victim.Slot, dst.Slot)
	}

	fmt.Println("== detection: full-database audit")
	auditErr := db.Audit()
	var ce *core.CorruptionError
	switch {
	case errors.As(auditErr, &ce):
		fmt.Printf("   audit FAILED: %d corrupt region(s) noted in the log\n", len(ce.Mismatches))
	case auditErr == nil:
		fmt.Println("   audit clean (no codewords under this scheme would be a bug; " +
			"with cwreadlog detection happens at restart instead)")
	default:
		return auditErr
	}

	fmt.Println("== crash: discarding in-memory state")
	if err := db.Crash(); err != nil {
		return err
	}

	fmt.Println("== restart: delete-transaction corruption recovery")
	db2, rep, err := recovery.Open(cfg, recovery.Options{})
	if err != nil {
		return err
	}
	defer db2.Close()
	fmt.Printf("   corruption mode: %v (codeword variant: %v)\n", rep.CorruptionMode, rep.CWMode)
	fmt.Printf("   scanned %d log records from CK_end=%d, applied %d redo records\n",
		rep.RecordsScanned, rep.ScanStart, rep.RedoApplied)
	fmt.Printf("   seeded corrupt data: %v\n", rep.SeedCorrupt)
	if len(rep.Deleted) == 0 {
		fmt.Println("   no transactions deleted from history")
	}
	for _, d := range rep.Deleted {
		fmt.Printf("   DELETED txn %d (had committed: %v) — report to the user for manual compensation\n",
			d.ID, d.Committed)
	}
	fmt.Printf("   rolled back (ordinary incomplete): %v\n", rep.RolledBack)
	fc := rep.FinalCorrupt
	if len(fc) > 8 {
		fmt.Printf("   final corrupt data table: %d ranges, first 8: %v\n", len(fc), fc[:8])
	} else {
		fmt.Printf("   final corrupt data table: %v\n", fc)
	}

	if err := db2.Audit(); err != nil {
		return fmt.Errorf("post-recovery audit failed: %w", err)
	}
	fmt.Println("== verification: post-recovery full audit CLEAN; corrupted and carried data restored")
	_ = carrierIDs
	return nil
}

// runHeal walks through the error-correction tier on a live database:
// one injected fault per damage shape, the consistency checker's CW06x
// report before and after healing, and the escalation of the one shape
// past the correction radius.
func runHeal(seed int64, dir string) error {
	if dir == "" {
		d, err := os.MkdirTemp("", "corruptool-heal-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	scale := tpcb.SmallScale
	cfg := core.Config{
		Dir:       dir,
		ArenaSize: scale.ArenaSize(),
		Protect:   protect.Config{Kind: protect.KindDataCW, RegionSize: 512},
	}

	fmt.Printf("== setup: datacw scheme with the ECC tier on, database in %s\n", dir)
	db, err := core.Open(cfg)
	if err != nil {
		return err
	}
	w, err := tpcb.Setup(db, scale, seed)
	if err != nil {
		return err
	}
	if err := w.Run(500); err != nil {
		return err
	}
	if err := db.Audit(); err != nil {
		return fmt.Errorf("clean-run audit: %w", err)
	}
	tab := db.Scheme().(interface{ Table() *region.Table }).Table()
	fmt.Printf("   ran 500 clean operations; %d regions x %d locator planes each\n",
		tab.NumRegions(), tab.NumPlanes())

	// One fault per damage shape, each in its own region.
	account, _, _, _ := w.Tables()
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), seed)
	inj.SetRegistry(db.Observability())
	a1 := account.RecordAddr(13) + 16
	if _, err := inj.WordSmash(a1, 0xDEADBEEF); err != nil {
		return err
	}
	fmt.Printf("== fault 1: single-word smash at %d (repairable)\n", a1)
	r2 := tab.RegionOf(account.RecordAddr(29))
	if err := inj.ParityHit(tab, r2, 1, 0xF00D); err != nil {
		return err
	}
	fmt.Printf("== fault 2: stale locator plane on region %d (data intact)\n", r2)
	a3 := account.RecordAddr(47) + 8
	if _, err := inj.DoubleWordSmash(a3, a3+8, 0xAB, 0xCD); err != nil {
		return err
	}
	fmt.Printf("== fault 3: double-word smash at %d (past the correction radius)\n", a3)

	fmt.Println("== before: consistency check (no healing)")
	printProblems(db, check.Options{})
	fmt.Println("== healing: consistency check with -heal")
	printProblems(db, check.Options{Heal: true})
	fmt.Println("== after: consistency check again")
	remaining := printProblems(db, check.Options{})
	for _, p := range remaining {
		if p.Code == check.CodeECCRepairable || p.Code == check.CodeECCParityStale {
			return fmt.Errorf("repairable damage survived healing: %v", p)
		}
	}

	fmt.Println("== escalation: the unrepairable region goes through crash + delete-transaction recovery")
	if err := db.Crash(); err != nil {
		return err
	}
	db2, rep, err := recovery.Open(cfg, recovery.Options{})
	if err != nil {
		return err
	}
	defer db2.Close()
	fmt.Printf("   corruption mode: %v; %d transaction(s) deleted from history\n",
		rep.CorruptionMode, len(rep.Deleted))
	problems, err := check.Run(db2)
	if err != nil {
		return err
	}
	for _, p := range problems {
		if p.Severity == check.SevError {
			return fmt.Errorf("post-recovery check not clean: %v", p)
		}
	}
	fmt.Println("== verification: post-recovery consistency check CLEAN")
	fmt.Println("   repairable damage healed in place (no restart, no deleted transactions);")
	fmt.Println("   only the damage past the correction radius cost a recovery.")
	return nil
}

// printProblems runs the consistency checker and prints its findings.
func printProblems(db *core.DB, opts check.Options) []check.Problem {
	problems, err := check.RunOpts(db, opts)
	if err != nil {
		fmt.Println("   check error:", err)
		return nil
	}
	if len(problems) == 0 {
		fmt.Println("   consistent (no findings)")
		return nil
	}
	for _, p := range problems {
		fmt.Println("   ", p)
	}
	return problems
}

func cacheRepair(db *core.DB, account *heap.Table, victims []heap.RID) error {
	ranges := make([]recovery.Range, 0, len(victims))
	for _, v := range victims {
		ranges = append(ranges, recovery.Range{Start: account.RecordAddr(v.Slot), Len: account.RecSize})
	}
	if err := recovery.CacheRecover(db, ranges); err != nil {
		return err
	}
	if err := db.Audit(); err != nil {
		return fmt.Errorf("audit after cache recovery: %w", err)
	}
	fmt.Println("   cache recovery repaired the regions in place; audit CLEAN")
	return db.Close()
}
