// Command logdump prints a database's system log human-readably: every
// record with its LSN, kind, transaction, data identity, and codewords
// where present. Useful for inspecting read-log volume, verifying
// operation bracketing, and debugging recovery scenarios. -stats ends the
// listing with per-kind record counts and payload bytes, and the frame
// count and header bytes beside them: one frame holds one Append, so the
// payload and header bytes add up to the log file's record section.
//
// Usage:
//
//	logdump -dir DBDIR [-from LSN] [-kinds read,phys-redo] [-txn ID] [-n MAX] [-stats]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/iofault"
	"repro/internal/wal"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	from := flag.Uint64("from", 0, "skip records below this LSN")
	kindsFlag := flag.String("kinds", "", "comma-separated kind filter (e.g. read,phys-redo)")
	txnFlag := flag.Uint64("txn", 0, "show only this transaction (0 = all)")
	max := flag.Int("n", 0, "stop after N records (0 = all)")
	stats := flag.Bool("stats", false, "print per-kind record counts and payload bytes, and frame count and header bytes, at the end")
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
	payload := map[wal.Kind]int{}
	frames := 0
	// A record's payload bytes run to the next record of its frame, or to
	// the frame's end; the last record seen waits here until that is known.
	var lastKind wal.Kind
	var lastLSN, lastEnd wal.LSN
	settle := func(next wal.LSN) {
		if lastEnd != 0 {
			payload[lastKind] += int(next - lastLSN)
		}
	}
	printed := 0
	// A record is printed if it passes the filters, until -n is reached;
	// -stats walks on to the end of the log.
	visit := func(r *wal.Record, frameEnd wal.LSN) bool {
		if frameEnd != lastEnd {
			settle(lastEnd - wal.FrameHeaderSize)
			frames++
		} else {
			settle(r.LSN)
		}
		lastKind, lastLSN, lastEnd = r.Kind, r.LSN, frameEnd
		counts[r.Kind]++
		if len(wantKind) > 0 && !wantKind[r.Kind.String()] || *txnFlag != 0 && uint64(r.Txn) != *txnFlag {
			return true
		}
		if *max == 0 || printed < *max {
			fmt.Println(format(r))
			printed++
		}
		return *stats || *max == 0 || printed < *max
	}

	cur, err := wal.OpenCursor(iofault.OS, *dir, nil)
	for err == nil && cur.Next() {
		if r := cur.Record(); r.LSN >= wal.LSN(*from) && !visit(r, cur.FrameEnd()) {
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
		settle(lastEnd - wal.FrameHeaderSize)
		fmt.Println("--")
		kinds := make([]wal.Kind, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		slices.Sort(kinds)
		total, totalBytes := 0, 0
		for _, k := range kinds {
			fmt.Printf("%-12s %8d records %10d payload bytes\n", k, counts[k], payload[k])
			total += counts[k]
			totalBytes += payload[k]
		}
		headers := frames * wal.FrameHeaderSize
		fmt.Printf("%-12s %8d frames  %10d header bytes\n", "frames", frames, headers)
		fmt.Printf("%-12s %8d records %10d bytes\n", "total", total, totalBytes+headers)
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
