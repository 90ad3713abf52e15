// Corruption audit walkthrough: compares how each protection scheme
// responds to the same wild write — Baseline misses it, Data Codeword
// detects it at audit (a reader may already have seen it, so it is left
// for delete-transaction recovery), Read Prechecking locates the damaged
// word through its S1 syndrome and heals it in place at audit (no read
// ever sees unverified bytes there), and Hardware protection traps the
// write itself. (With protect.Config.DisableHeal Read Prechecking reports
// the corruption instead of repairing it — the paper's original
// detection-only story.)
//
//	go run ./examples/corruption_audit
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/protect"
)

func main() {
	configs := []struct {
		name string
		pc   protect.Config
	}{
		{"Baseline (no protection)", protect.Config{Kind: protect.KindBaseline}},
		{"Data Codeword (512B regions)", protect.Config{Kind: protect.KindDataCW, RegionSize: 512}},
		{"Read Prechecking (64B regions)", protect.Config{Kind: protect.KindPrecheck, RegionSize: 64}},
		{"Hardware protection (simulated)", protect.Config{Kind: protect.KindHW, ForceSimProtect: true}},
	}
	for _, c := range configs {
		fmt.Printf("=== %s\n", c.name)
		if err := demo(c.pc); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}

func demo(pc protect.Config) error {
	dir, err := os.MkdirTemp("", "audit-demo-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := core.Open(core.Config{Dir: dir, ArenaSize: 1 << 18, Protect: pc})
	if err != nil {
		return err
	}
	defer db.Close()
	cat, _ := heap.Open(db)
	tb, err := cat.CreateTable("data", 64, 64)
	if err != nil {
		return err
	}
	txn, _ := db.Begin()
	rec := make([]byte, 64)
	copy(rec, "important payload")
	rid, err := tb.Insert(txn, rec)
	if err != nil {
		return err
	}
	if err := txn.Commit(); err != nil {
		return err
	}

	// The wild write, subject to the scheme's page protector.
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 1)
	trapped, err := inj.WildWrite(tb.RecordAddr(rid.Slot)+4, []byte{0x00, 0x00})
	if err != nil {
		return err
	}
	if trapped {
		fmt.Println("  wild write: TRAPPED by page protection — direct corruption prevented")
		return nil
	}
	fmt.Println("  wild write: landed (no hardware prevention)")

	// Audit (asynchronous detection — and, with ECC on, repair).
	var ce *core.CorruptionError
	switch auditErr := db.Audit(); {
	case errors.As(auditErr, &ce):
		fmt.Printf("  audit: corruption DETECTED in %d region(s)\n", len(ce.Mismatches))
	case auditErr == nil:
		if m := db.Metrics(); m.Counter(obs.NameHeals) > 0 {
			fmt.Println("  audit: corruption located and HEALED in place — data repaired, no recovery needed")
		} else {
			fmt.Println("  audit: clean — this scheme cannot detect the corruption")
		}
	default:
		return auditErr
	}

	// Transactional read (synchronous prevention). The read path wraps
	// both sentinels, so errors.Is works with the generic
	// core.ErrCorruption as well as the specific precheck cause.
	txn2, _ := db.Begin()
	_, readErr := tb.Read(txn2, rid)
	switch {
	case errors.Is(readErr, core.ErrCorruption):
		if !errors.Is(readErr, protect.ErrPrecheckFailed) {
			return fmt.Errorf("corruption error without precheck cause: %w", readErr)
		}
		fmt.Println("  read: PREVENTED — precheck refused to return corrupt data")
		txn2.Abort()
	case readErr == nil:
		if got, _ := tb.Read(txn2, rid); string(got[:len("important payload")]) == "important payload" {
			fmt.Println("  read: returned intact data — the heal restored the damaged word")
		} else {
			fmt.Println("  read: returned (possibly corrupt) data — transaction would carry the corruption")
		}
		txn2.Commit()
	default:
		return readErr
	}
	return nil
}
