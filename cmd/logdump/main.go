// Command logdump prints a database's system log human-readably: every
// record with its LSN, kind, transaction, data identity, and codewords
// where present. Useful for inspecting read-log volume, verifying
// operation bracketing, and debugging recovery scenarios.
//
// Usage:
//
//	logdump -dir DBDIR [-from LSN] [-kinds read,phys-redo] [-txn ID] [-n MAX]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/iofault"
	"repro/internal/wal"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	from := flag.Uint64("from", 0, "scan from this LSN (clamped to the retained base)")
	kindsFlag := flag.String("kinds", "", "comma-separated kind filter (e.g. read,phys-redo)")
	txnFlag := flag.Uint64("txn", 0, "show only this transaction (0 = all)")
	max := flag.Int("n", 0, "stop after N records (0 = all)")
	stats := flag.Bool("stats", false, "print per-kind record counts and byte totals at the end")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "logdump: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	wantKind := map[string]bool{}
	if *kindsFlag != "" {
		for _, k := range strings.Split(*kindsFlag, ",") {
			wantKind[strings.TrimSpace(k)] = true
		}
	}

	counts := map[wal.Kind]int{}
	bytes := map[wal.Kind]int{}
	printed := 0
	visit := func(r *wal.Record) bool {
		counts[r.Kind]++
		bytes[r.Kind] += r.EncodedSize()
		if len(wantKind) > 0 && !wantKind[r.Kind.String()] {
			return true
		}
		if *txnFlag != 0 && uint64(r.Txn) != *txnFlag {
			return true
		}
		fmt.Println(format(r))
		printed++
		return *max == 0 || printed < *max
	}

	// A non-zero -from below the retained base starts at the base.
	var start *wal.LSN
	if *from != 0 {
		s := wal.LSN(*from)
		if base, err := wal.LogBaseFS(iofault.OS, *dir); err == nil && s < base {
			s = base
		}
		start = &s
	}
	cur, err := wal.OpenCursor(iofault.OS, *dir, start)
	for err == nil && cur.Next() {
		if !visit(cur.Record()) {
			break
		}
	}
	if err == nil {
		err = cur.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "logdump:", err)
		os.Exit(1)
	}
	if *stats {
		fmt.Println("--")
		total, totalBytes := 0, 0
		for k, c := range counts {
			fmt.Printf("%-12s %8d records %10d bytes\n", k, c, bytes[k])
			total += c
			totalBytes += bytes[k]
		}
		fmt.Printf("%-12s %8d records %10d bytes\n", "total", total, totalBytes)
	}
}

func format(r *wal.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10d  %-11s txn=%-5d", r.LSN, r.Kind, r.Txn)
	switch r.Kind {
	case wal.KindPhysRedo:
		fmt.Fprintf(&b, " addr=%d len=%d", r.Addr, len(r.Data))
		if r.HasCW {
			fmt.Fprintf(&b, " cw=%016x", uint64(r.CW))
		}
	case wal.KindRead:
		fmt.Fprintf(&b, " addr=%d len=%d", r.Addr, r.Len)
		if r.HasCW {
			fmt.Fprintf(&b, " cw=%016x", uint64(r.CW))
		}
	case wal.KindOpBegin:
		fmt.Fprintf(&b, " level=%d key=%#x", r.Level, uint64(r.Key))
	case wal.KindOpCommit:
		fmt.Fprintf(&b, " level=%d key=%#x undo-op=%d", r.Level, uint64(r.Key), r.Undo.Op)
		if r.Compensation {
			b.WriteString(" COMPENSATION")
		}
	case wal.KindTxnPrepare:
		fmt.Fprintf(&b, " gid=%#x", r.GID)
	case wal.KindTxnDecision:
		fmt.Fprintf(&b, " gid=%#x commit=%v", r.GID, r.Decision)
	case wal.KindAuditBegin:
		fmt.Fprintf(&b, " sn=%d", r.AuditSN)
	case wal.KindAuditEnd:
		fmt.Fprintf(&b, " sn=%d clean=%v", r.AuditSN, r.AuditClean)
		for i := range r.CorruptAddrs {
			fmt.Fprintf(&b, " corrupt=[%d,+%d)", r.CorruptAddrs[i], r.CorruptLens[i])
		}
	}
	return b.String()
}
