// Command dbcheck opens a database (running restart recovery if needed)
// and runs the full consistency check suite: codeword audit, heap
// structure, index structure, checkpoint/log agreement, and the log
// audit (CW051 stable end beyond the log's end, CW052 poisoned log — the
// runtime counterparts of dbvet's latchorder and errflow contracts). Exit
// status 0 means
// consistent (warning-severity findings are printed but do not fail the
// check); 1 means error-severity problems were found, including any of
// the CW05x log findings; 2 means the check could not run. Problem
// lines carry stable CW0xx codes for machine consumption.
//
// With -heal the ECC sweep repairs what it can in place: located
// single-word damage is reconstructed (CW061, warning); damage past the
// correction radius — damage to the S1 syndrome word included — still
// reports CW062 as an error (CW063, stale locator planes, is retired:
// nothing is rebuilt from the data as it stands). Without -heal,
// repairable damage reports CW060 as an error so an operator is never
// surprised by a silently modified image.
//
// Usage:
//
//	dbcheck -dir DBDIR -arena BYTES [-scheme NAME] [-heal]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/protect"
	"repro/internal/recovery"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	arena := flag.Int("arena", 0, "arena size in bytes (required; must match the database)")
	schemeName := flag.String("scheme", "datacw", "protection scheme the database runs")
	heal := flag.Bool("heal", false, "repair repairable ECC findings in place (CW061 warnings instead of CW060 errors)")
	flag.Parse()
	if *dir == "" || *arena == 0 {
		fmt.Fprintln(os.Stderr, "dbcheck: -dir and -arena are required")
		flag.Usage()
		os.Exit(2)
	}
	kind, err := protect.ParseKind(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbcheck:", err)
		os.Exit(2)
	}

	db, rep, err := recovery.Open(core.Config{Dir: *dir, ArenaSize: *arena, Protect: protect.Config{Kind: kind}}, recovery.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbcheck: open:", err)
		os.Exit(2)
	}
	defer db.Close()
	if rep.CorruptionMode {
		fmt.Printf("note: opening ran corruption recovery; %d transaction(s) deleted\n", len(rep.Deleted))
	}
	problems, err := check.RunOpts(db, check.Options{Heal: *heal})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbcheck:", err)
		os.Exit(2)
	}
	errors := 0
	for _, p := range problems {
		fmt.Println("dbcheck:", p)
		if p.Severity == check.SevError {
			errors++
		}
	}
	if errors > 0 {
		os.Exit(1)
	}
	fmt.Println("dbcheck: consistent")
}
