// Command dbstat inspects a database directory and dumps its metrics.
//
// Offline (default) it reads the checkpoint anchor and the stable log
// without opening the database: current image, checkpoint sequence
// number, CK_end, Audit_SN, and log extent. With -open it runs restart
// recovery, prints where that recovery's time went (phase table),
// optionally audits (-audit), and prints the full obs metrics snapshot — every counter, gauge and histogram the engine maintains —
// as aligned text or JSON (-json).
//
// Usage:
//
//	dbstat -dir DBDIR                              # offline anchor/log info
//	dbstat -dir DBDIR -open -arena BYTES [-audit]  # open, snapshot metrics
//	dbstat -dir DBDIR -open -arena BYTES -json     # snapshot as JSON
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/wal"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	open := flag.Bool("open", false, "open the database (restart recovery) and dump its metrics snapshot")
	arena := flag.Int("arena", 0, "arena size in bytes (required with -open; must match the database)")
	schemeName := flag.String("scheme", "datacw", "protection scheme the database runs (with -open)")
	audit := flag.Bool("audit", false, "run a full codeword audit before the snapshot (with -open)")
	asJSON := flag.Bool("json", false, "print the snapshot as JSON instead of text")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "dbstat: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	// JSON mode emits only the snapshot document so stdout stays
	// machine-parseable; the offline summary is text-mode output.
	if !*asJSON {
		if err := printOffline(*dir); err != nil {
			fmt.Fprintln(os.Stderr, "dbstat:", err)
			os.Exit(2)
		}
	}
	if !*open {
		return
	}
	if *arena == 0 {
		fmt.Fprintln(os.Stderr, "dbstat: -open requires -arena")
		os.Exit(2)
	}
	kind, err := protect.ParseKind(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbstat:", err)
		os.Exit(2)
	}
	db, rep, err := recovery.Open(core.Config{Dir: *dir, ArenaSize: *arena, Protect: protect.Config{Kind: kind}}, recovery.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbstat: open:", err)
		os.Exit(2)
	}
	defer db.Close()
	info := os.Stdout
	if *asJSON {
		info = os.Stderr
	}
	if rep.CorruptionMode {
		fmt.Fprintf(info, "note: opening ran corruption recovery; %d transaction(s) deleted\n", len(rep.Deleted))
	}
	printPhases(info, rep)
	if *audit {
		if err := db.Audit(); err != nil {
			// A dirty audit is a finding, not a tool failure: the
			// mismatches are in the snapshot's corruption counters.
			fmt.Fprintln(info, "audit:", err)
		} else {
			fmt.Fprintln(info, "audit: clean")
		}
	}
	snap := db.Metrics()
	if *asJSON {
		out, err := snap.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbstat:", err)
			os.Exit(2)
		}
		os.Stdout.Write(append(out, '\n'))
		return
	}
	fmt.Println()
	fmt.Print(snap.Text())
}

// printPhases reports where the restart that just ran spent its time: the
// same durations the snapshot holds as recovery.*_ns.
func printPhases(w io.Writer, rep *recovery.Report) {
	if rep.FreshDatabase {
		return
	}
	p := rep.Phases
	fmt.Fprintf(w, "recovery: %d records scanned, %d redone\n",
		rep.RecordsScanned, rep.RedoApplied)
	for _, row := range []struct {
		name string
		d    time.Duration
	}{
		{"load", p.Load}, {"scan", p.Scan}, {"redo", p.Redo}, {"build", p.Build},
		{"  log open", p.LogOpen}, {"  recompute", p.Recompute}, {"undo", p.Undo}, {"checkpoint", p.Checkpoint},
		{"total", p.Total()},
	} {
		fmt.Fprintf(w, "  %-12s %10.3f ms\n", row.name, float64(row.d)/float64(time.Millisecond))
	}
}

// printOffline reports what the directory says without opening it.
func printOffline(dir string) error {
	loaded, err := ckpt.Load(iofault.OS, dir)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		fmt.Printf("%s: no checkpoint anchor (fresh or never checkpointed)\n", dir)
	case err != nil:
		return err
	default:
		a := loaded.Anchor
		img := "A"
		if a.Current == 1 {
			img = "B"
		}
		fmt.Printf("%s:\n", dir)
		fmt.Printf("  checkpoint:   image %s, seqno %d\n", img, a.SeqNo)
		fmt.Printf("  CK_end:       %d\n", a.CKEnd)
		fmt.Printf("  Audit_SN:     %d\n", a.AuditSN)
		fmt.Printf("  image size:   %d bytes\n", len(loaded.Image))
		fmt.Printf("  ATT entries:  %d\n", len(loaded.ATTEntries))
	}
	base, err := wal.LogBaseFS(iofault.OS, dir)
	if err != nil {
		return err
	}
	st, err := os.Stat(filepath.Join(dir, wal.LogFileName))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		fmt.Printf("  log:          none\n")
		return nil
	case err != nil:
		return err
	}
	cur, err := wal.OpenCursor(iofault.OS, dir, nil)
	if err != nil {
		return err
	}
	end := cur.End()
	fmt.Printf("  log:          base LSN %d, valid end %d, %d record bytes (file %d bytes)\n", base, end, end-base, st.Size())
	return nil
}
