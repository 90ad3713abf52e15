// Command logtrace analyzes a database's system log offline and reports
// how corruption would propagate from a given seed — corrupt byte ranges
// (addressing errors) or suspect transactions (logical corruption from
// bad input), per the paper's §4.2 audit-trail use of read logging and
// its §7 outlook on tracing errors through the database.
//
// The database must have run with a read-logging scheme for reads to be
// traceable; writes are always in the log.
//
// Usage:
//
//	logtrace -dir DBDIR [-from LSN] [-range START:LEN]... [-txn ID]... [-seedat LSN]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/recovery"
	"repro/internal/trace"
	"repro/internal/wal"
)

type rangeList []recovery.Range

func (r *rangeList) String() string { return fmt.Sprint(*r) }

func (r *rangeList) Set(s string) error {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("range must be START:LEN, got %q", s)
	}
	start, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return err
	}
	*r = append(*r, recovery.Range{Start: mem.Addr(start), Len: n})
	return nil
}

type txnList []wal.TxnID

func (t *txnList) String() string { return fmt.Sprint(*t) }

func (t *txnList) Set(s string) error {
	id, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return err
	}
	*t = append(*t, wal.TxnID(id))
	return nil
}

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	from := flag.Uint64("from", 0, "log position to scan from")
	seedAt := flag.Uint64("seedat", 0, "log position at which seed ranges become corrupt (0 = scan start)")
	dot := flag.Bool("dot", false, "emit a Graphviz digraph instead of the text report")
	var ranges rangeList
	var txns txnList
	flag.Var(&ranges, "range", "corrupt byte range START:LEN (repeatable)")
	flag.Var(&txns, "txn", "suspect transaction ID (repeatable)")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "logtrace: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	res, err := trace.Run(*dir, trace.Options{
		From:       wal.LSN(*from),
		SeedRanges: ranges,
		SeedTxns:   txns,
		SeedAt:     wal.LSN(*seedAt),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "logtrace:", err)
		os.Exit(1)
	}
	if *dot {
		fmt.Print(res.DOT())
		return
	}
	fmt.Print(res.Report())
}
