// Command archivetool writes full-image archives of a quiesced database
// and performs media recovery from them.
//
// Usage:
//
//	archivetool info   -archive FILE
//	archivetool recover -archive FILE -dir DBDIR -arena BYTES [-scheme NAME]
//
// (Writing an archive is an API operation — archive.Write(db, path) — on a
// live database; this tool covers inspection and disaster recovery.)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/protect"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	arc := fs.String("archive", "", "archive file")
	dir := fs.String("dir", "", "database directory (recover)")
	arena := fs.Int("arena", 0, "arena size in bytes (recover; must match the archived database)")
	schemeName := fs.String("scheme", "datacw", "protection scheme for the recovered database")
	fs.Parse(os.Args[2:])

	if *arc == "" {
		fmt.Fprintln(os.Stderr, "archivetool: -archive is required")
		os.Exit(2)
	}
	switch cmd {
	case "info":
		info, _, _, err := archive.Read(iofault.OS, *arc)
		if err != nil {
			fatal(err)
		}
		fmt.Println(info)
	case "recover":
		if *dir == "" || *arena == 0 {
			fmt.Fprintln(os.Stderr, "archivetool recover: -dir and -arena are required")
			os.Exit(2)
		}
		kind, err := protect.ParseKind(*schemeName)
		if err != nil {
			fatal(err)
		}
		db, rep, err := archive.Recover(core.Config{Dir: *dir, ArenaSize: *arena, Protect: protect.Config{Kind: kind}}, *arc)
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		fmt.Printf("recovered: scanned %d records from %d, applied %d, rolled back %v\n",
			rep.RecordsScanned, rep.ScanStart, rep.RedoApplied, rep.RolledBack)
		if err := db.Audit(); err != nil {
			fatal(err)
		}
		fmt.Println("post-recovery audit: clean")
	default:
		usage()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "archivetool:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: archivetool {info|recover} -archive FILE [-dir DBDIR -arena BYTES]")
	os.Exit(2)
}
