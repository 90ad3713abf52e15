// Command logdump prints a database's system log human-readably: every
// record with its LSN, kind, transaction, data identity, and codewords
// where present. Useful for inspecting read-log volume, verifying
// operation bracketing, and debugging recovery scenarios.
//
// Multi-stream log sets (core.Config.LogStreams > 1) are detected
// automatically: all stream files are scanned and merged into global GSN
// order, and each line is prefixed with its stream index and GSN. With
// -stream only that stream's file is dumped, in its local LSN order.
// Single-stream directories keep the historical single-file output.
//
// Usage:
//
//	logdump -dir DBDIR [-from LSN] [-kinds read,phys-redo] [-txn ID] [-n MAX] [-stream S]
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
	from := flag.Uint64("from", 0, "scan from this LSN (multi-stream: applied per stream)")
	kindsFlag := flag.String("kinds", "", "comma-separated kind filter (e.g. read,phys-redo)")
	txnFlag := flag.Uint64("txn", 0, "show only this transaction (0 = all)")
	max := flag.Int("n", 0, "stop after N records (0 = all)")
	stats := flag.Bool("stats", false, "print per-kind record counts and byte totals at the end")
	stream := flag.Int("stream", -1, "dump only this stream of a multi-stream set (-1 = merge all)")
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

	nStreams, err := wal.DetectStreamsFS(iofault.OS, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "logdump:", err)
		os.Exit(1)
	}
	if *stream >= nStreams {
		fmt.Fprintf(os.Stderr, "logdump: -stream %d out of range (log set has %d stream(s))\n", *stream, nStreams)
		os.Exit(2)
	}

	counts := map[wal.Kind]int{}
	bytes := map[wal.Kind]int{}
	printed := 0
	visit := func(prefix string, r *wal.Record) bool {
		counts[r.Kind]++
		bytes[r.Kind] += r.EncodedSize()
		if len(wantKind) > 0 && !wantKind[r.Kind.String()] {
			return true
		}
		if *txnFlag != 0 && uint64(r.Txn) != *txnFlag {
			return true
		}
		fmt.Println(prefix + format(r))
		printed++
		return *max == 0 || printed < *max
	}

	// A single-file log prints without a prefix, a multi-stream set merges
	// into global GSN order, and -stream reads that stream's file alone, in
	// its local LSN order. A non-zero -from is a per-stream floor: each
	// stream's LSN domain is independent.
	starts := startVector(*dir, nStreams, wal.LSN(*from))
	var cur *wal.Cursor
	if *stream >= 0 {
		cur, err = wal.OpenStreamCursor(iofault.OS, *dir, *stream, starts)
	} else {
		cur, err = wal.OpenCursor(iofault.OS, *dir, starts)
	}
	for err == nil && cur.Next() {
		r := cur.Record()
		prefix := ""
		switch {
		case nStreams > 1 && *stream >= 0:
			prefix = fmt.Sprintf("s%-2d ", *stream)
		case nStreams > 1:
			prefix = fmt.Sprintf("s%-2d g%-10d ", cur.Stream(), r.GSN)
		}
		if !visit(prefix, r) {
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

// startVector clamps a user-supplied -from below every stream's retained
// base. A zero from returns nil, letting the scan use each base directly.
func startVector(dir string, n int, from wal.LSN) []wal.LSN {
	if from == 0 {
		return nil
	}
	bases, err := wal.LogBasesFS(iofault.OS, dir)
	if err != nil {
		return nil
	}
	starts := make([]wal.LSN, n)
	for i := range starts {
		starts[i] = from
		if i < len(bases) && starts[i] < bases[i] {
			starts[i] = bases[i]
		}
	}
	return starts
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
