package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/region"
)

// The TPC-B shaped driver behind tpcb_base, tpcb_precheck,
// inquiry_readlog and tpcb_commit. It is written against the public
// functions of core, heap and recovery only and deliberately does not
// import internal/tpcb: the load generator must not move when a later
// change edits that package.

const (
	recSize     = 100
	offBalance  = 8
	initBalance = 1_000_000
	loadBatch   = 5_000
)

// engine is what a pass drives: one open database plus its clients.
type engine interface {
	// setup opens a fresh database, creates and loads it, and takes the
	// first checkpoint.
	setup() error
	// warm fills the history table (untimed) so that every measured
	// operation pays the delete + insert of a full ring.
	warm() error
	// window runs units of work split evenly over the clients.
	window(units int, traced bool) (windowResult, error)
	checkpoint() error
	// metrics folds every Metrics() snapshot of the database into one.
	metrics() obs.Snapshot
	// crashReopen crashes the database and reopens it through restart
	// recovery, reporting the time from Crash() until it is ready.
	crashReopen() (time.Duration, recoveryInfo, error)
	// verify is the oracle: the database must equal the acked history.
	verify() error
	// space reports protection overhead bytes against arena bytes.
	space() (overhead, arena int)
	tracers() []*tracer
	// destroy drops the database without flushing and deletes its files.
	destroy() error
}

type windowResult struct {
	wall           time.Duration
	lat            []int64 // begin -> commit ack of every committed transaction, ascending, ns
	attemptedUnits int
	committedOps   int // committed units
	attemptedTxns  int
	failedTxns     int
	crossTxns      int // kv_wire: transactions that took the remote account
}

type recoveryInfo struct {
	recordsScanned int
	redoApplied    int
	parallelNS     float64 // recovery.parallel_ns of the reopened database(s)
}

func (sp *spec) effectiveClients() int {
	if n := runtime.GOMAXPROCS(0); sp.clients > n {
		return n
	}
	return sp.clients
}

// clientSeed derives one client's RNG seed from the pass seed.
func clientSeed(seed int64, client int) int64 {
	return seed*1_000_003 + int64(client)*7919 + 1
}

// runClients runs fn for every client and joins the errors; a single
// client runs on the calling goroutine.
func runClients(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

type tpcbEngine struct {
	sp  *spec
	sz  sizing
	cfg core.Config

	db                     *core.DB
	acct, tell, brch, hist *heap.Table
	clients                []*tpcbClient
	states                 []*clientState
}

// clientState is what every closed-loop client carries whichever stack
// it drives: its RNG and span buffer, and what a window resets and
// collects.
type clientState struct {
	id  int
	rng *rand.Rand
	tr  *tracer
	txn uint32 // transaction id on the spans

	lat                     []int64
	failed, attempts, cross int
}

func newClientState(id int, seed int64, spanCap int, epoch time.Time) clientState {
	c := clientState{id: id, rng: rand.New(rand.NewSource(clientSeed(seed, id)))}
	if spanCap > 0 {
		c.tr = newTracer(id, spanCap, epoch)
	}
	return c
}

// runWindow runs per units on every client at once and gathers the
// window's result; run(i, per) is client i's loop.
func runWindow(clients []*clientState, per int, traced bool, run func(i, per int) (int, error)) (windowResult, error) {
	for _, c := range clients {
		c.lat, c.failed, c.attempts, c.cross = c.lat[:0], 0, 0, 0
		if c.tr != nil {
			c.tr.on = traced
		}
	}
	committed := make([]int, len(clients))
	start := time.Now()
	err := runClients(len(clients), func(i int) error {
		var err error
		committed[i], err = run(i, per)
		return err
	})
	res := windowResult{wall: time.Since(start), attemptedUnits: per * len(clients)}
	for i, c := range clients {
		res.lat = append(res.lat, c.lat...)
		res.committedOps += committed[i]
		res.attemptedTxns += c.attempts
		res.failedTxns += c.failed
		res.crossTxns += c.cross
	}
	slices.Sort(res.lat)
	return res, err
}

func tracersOf(clients []*clientState) []*tracer {
	out := make([]*tracer, len(clients))
	for i, c := range clients {
		out[i] = c.tr
	}
	return out
}

// tpcbClient is one closed-loop caller. Everything the oracle needs is
// kept here: the sum of acked deltas and the acked history sequence.
type tpcbClient struct {
	clientState
	e *tpcbEngine

	histBase, histCap uint32 // this client's partition of the history table
	histSeq           uint64 // history records of committed transactions
	acked             int64  // sum of deltas of committed transactions
}

func newTPCBEngine(sp *spec, sz sizing, dir string, seed int64, spanCap int, epoch time.Time) *tpcbEngine {
	records := sz.accounts + sz.tellers + sz.branches + sz.history
	e := &tpcbEngine{sp: sp, sz: sz}
	// No tuning knob is set: what is measured is what Normalized() gives.
	e.cfg = core.Config{Dir: dir, ArenaSize: records*recSize + records/8 + 64*4096}
	e.cfg.Protect.Kind = sp.kind
	n := sp.effectiveClients()
	part := uint32(sz.history / n)
	for i := 0; i < n; i++ {
		c := &tpcbClient{clientState: newClientState(i, seed, spanCap, epoch), e: e,
			histBase: uint32(i) * part, histCap: part}
		e.clients = append(e.clients, c)
		e.states = append(e.states, &c.clientState)
	}
	return e
}

func (e *tpcbEngine) setup() error {
	db, err := core.Open(e.cfg)
	if err != nil {
		return err
	}
	e.db = db
	cat, err := heap.Open(db)
	if err != nil {
		return err
	}
	for _, t := range []struct {
		dst  **heap.Table
		name string
		n    int
	}{{&e.brch, "branch", e.sz.branches}, {&e.tell, "teller", e.sz.tellers},
		{&e.acct, "account", e.sz.accounts}, {&e.hist, "history", e.sz.history}} {
		if *t.dst, err = cat.CreateTable(t.name, recSize, t.n); err != nil {
			return err
		}
	}
	for _, t := range []*heap.Table{e.brch, e.tell, e.acct} {
		if err := loadTable(db, t); err != nil {
			return err
		}
	}
	return db.Checkpoint()
}

// loadTable fills every slot of t with an id and the initial balance.
func loadTable(db *core.DB, t *heap.Table) error {
	rec := make([]byte, recSize)
	for lo := 0; lo < t.Cap; lo += loadBatch {
		txn, err := db.Begin()
		if err != nil {
			return err
		}
		for i := lo; i < lo+loadBatch && i < t.Cap; i++ {
			binary.LittleEndian.PutUint64(rec, uint64(i))
			binary.LittleEndian.PutUint64(rec[offBalance:], initBalance)
			if err := t.InsertAt(txn, heap.RID{Table: t.ID, Slot: uint32(i)}, rec); err != nil {
				txn.Abort()
				return err
			}
		}
		if err := txn.Commit(); err != nil {
			return err
		}
	}
	return nil
}

func (e *tpcbEngine) attach() error {
	cat, err := heap.Open(e.db)
	if err != nil {
		return err
	}
	for name, dst := range map[string]**heap.Table{
		"branch": &e.brch, "teller": &e.tell, "account": &e.acct, "history": &e.hist,
	} {
		if *dst, err = cat.Table(name); err != nil {
			return err
		}
	}
	return nil
}

// warm runs one history partition's worth of full TPC-B operations per
// client, in 500-operation transactions whatever the workload's own
// transaction size (50,000 single-operation commits would take longer
// than the measured part), one client after the other (two clients in
// 500-operation transactions would wait on each other's branch locks).
func (e *tpcbEngine) warm() error {
	orig, warm := e.sp, *e.sp
	warm.opsPerTxn, warm.inquiryPct = 500, 0
	e.sp = &warm
	defer func() { e.sp = orig }()
	for _, c := range e.clients {
		c.failed = 0
		if c.tr != nil {
			c.tr.on = false
		}
		if _, err := c.run(int(c.histCap)); err != nil {
			return err
		}
		if c.failed > 0 {
			return fmt.Errorf("%d warm-up transactions failed", c.failed)
		}
	}
	return nil
}

func (e *tpcbEngine) window(units int, traced bool) (windowResult, error) {
	return runWindow(e.states, units/len(e.clients), traced, func(i, per int) (int, error) {
		return e.clients[i].run(per)
	})
}

// run executes ops operations in transactions of opsPerTxn. A
// transaction that hits a lock timeout or an operation error is aborted
// and counted as failed — never retried — and its operations are gone
// from the committed count. Only an error that leaves the outcome unknown
// (a failed abort or commit) stops the run.
func (c *tpcbClient) run(ops int) (committed int, err error) {
	e := c.e
	for done := 0; done < ops; {
		n := e.sp.opsPerTxn
		if ops-done < n {
			n = ops - done
		}
		done += n
		c.attempts++
		c.txn++
		t0 := time.Now()
		root := c.tr.begin(spTxn, -1, c.txn)

		s := c.tr.begin(spCoreBegin, root, c.txn)
		txn, err := e.db.Begin()
		c.tr.end(s)
		if err != nil {
			return committed, err
		}
		seq, delta := c.histSeq, int64(0)
		var opErr error
		for i := 0; i < n && opErr == nil; i++ {
			var d int64
			d, seq, opErr = c.op(txn, root, seq)
			delta += d
		}
		if opErr != nil {
			s := c.tr.begin(spCoreAbort, root, c.txn)
			err := txn.Abort()
			c.tr.end(s)
			c.tr.end(root)
			if err != nil {
				return committed, fmt.Errorf("abort after %v: %w", opErr, err)
			}
			if !errors.Is(opErr, core.ErrLockTimeout) {
				fmt.Fprintf(os.Stderr, "bench: %s: client %d: transaction aborted: %v\n", e.sp.name, c.id, opErr)
			}
			c.failed++
			continue
		}
		s = c.tr.begin(spCoreCommit, root, c.txn)
		err = txn.Commit()
		c.tr.end(s)
		c.tr.end(root)
		if err != nil {
			return committed, fmt.Errorf("commit: %w", err)
		}
		c.lat = append(c.lat, int64(time.Since(t0)))
		c.histSeq, c.acked = seq, c.acked+delta
		committed += n
	}
	return committed, nil
}

// op is one operation inside txn. Records are always touched in account
// -> teller -> branch order so lock waits between clients cannot cycle.
// It returns the balance delta it applied and the advanced history
// sequence; neither counts until the transaction commits.
func (c *tpcbClient) op(txn *core.Txn, parent int32, seq uint64) (int64, uint64, error) {
	e := c.e
	op := c.tr.begin(spOp, parent, c.txn)
	defer c.tr.end(op)

	a := uint32(c.rng.Intn(e.sz.accounts))
	if c.rng.Intn(100) < e.sp.inquiryPct {
		// Balance inquiry: the account, its teller, its branch.
		t := a / uint32(e.sz.accounts/e.sz.tellers)
		b := t / uint32(e.sz.tellers/e.sz.branches)
		for _, r := range []struct {
			tab  *heap.Table
			slot uint32
		}{{e.acct, a}, {e.tell, t}, {e.brch, b}} {
			if _, err := c.read(txn, op, r.tab, r.slot); err != nil {
				return 0, seq, err
			}
		}
		return 0, seq, nil
	}
	t := uint32(c.rng.Intn(e.sz.tellers))
	b := uint32(c.rng.Intn(e.sz.branches))
	delta := int64(c.rng.Intn(1999) - 999)
	for _, r := range []struct {
		tab  *heap.Table
		slot uint32
	}{{e.acct, a}, {e.tell, t}, {e.brch, b}} {
		if len(e.clients) > 1 {
			// heap.Read takes a shared lock and heap.Update upgrades it:
			// two clients that read the same record in the same instant
			// would each wait for the other until the lock timeout. With
			// the exclusive lock taken first, a conflict is a plain wait.
			if err := txn.Lock(heap.RID{Table: r.tab.ID, Slot: r.slot}.Key(), lockmgr.Exclusive); err != nil {
				return 0, seq, err
			}
		}
		rec, err := c.read(txn, op, r.tab, r.slot)
		if err != nil {
			return 0, seq, err
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], binary.LittleEndian.Uint64(rec[offBalance:])+uint64(delta))
		s := c.tr.begin(spHeapUpdate, op, c.txn)
		err = r.tab.Update(txn, heap.RID{Table: r.tab.ID, Slot: r.slot}, offBalance, buf[:])
		c.tr.end(s)
		if err != nil {
			return 0, seq, err
		}
	}
	// History: a ring over this client's partition, so a full table costs
	// a delete plus an insert per operation for the rest of the run.
	rid := heap.RID{Table: e.hist.ID, Slot: c.histBase + uint32(seq%uint64(c.histCap))}
	if seq >= uint64(c.histCap) {
		s := c.tr.begin(spHeapDelete, op, c.txn)
		err := e.hist.Delete(txn, rid)
		c.tr.end(s)
		if err != nil {
			return 0, seq, err
		}
	}
	var h [recSize]byte
	binary.LittleEndian.PutUint64(h[0:], seq)
	binary.LittleEndian.PutUint32(h[8:], a)
	binary.LittleEndian.PutUint32(h[12:], t)
	binary.LittleEndian.PutUint32(h[16:], b)
	binary.LittleEndian.PutUint64(h[20:], uint64(delta))
	s := c.tr.begin(spHeapInsert, op, c.txn)
	err := e.hist.InsertAt(txn, rid, h[:])
	c.tr.end(s)
	return delta, seq + 1, err
}

func (c *tpcbClient) read(txn *core.Txn, parent int32, tab *heap.Table, slot uint32) ([]byte, error) {
	s := c.tr.begin(spHeapRead, parent, c.txn)
	rec, err := tab.Read(txn, heap.RID{Table: tab.ID, Slot: slot})
	c.tr.end(s)
	return rec, err
}

func (e *tpcbEngine) checkpoint() error     { return e.db.Checkpoint() }
func (e *tpcbEngine) metrics() obs.Snapshot { return e.db.Metrics() }
func (e *tpcbEngine) tracers() []*tracer    { return tracersOf(e.states) }

func (e *tpcbEngine) crashReopen() (time.Duration, recoveryInfo, error) {
	start := time.Now()
	if err := e.db.Crash(); err != nil {
		return 0, recoveryInfo{}, err
	}
	db, rep, err := recovery.Open(e.cfg, recovery.Options{})
	if err != nil {
		return 0, recoveryInfo{}, err
	}
	e.db = db
	if err := e.attach(); err != nil {
		return 0, recoveryInfo{}, err
	}
	ready := time.Since(start)
	ri := recoveryInfo{recordsScanned: rep.RecordsScanned, redoApplied: rep.RedoApplied}
	ri.parallelNS = float64(db.Metrics().Histogram(obs.NameRecoveryParallelNS).Sum)
	return ready, ri, nil
}

// verify checks the three balance sums against the sum of acked deltas
// and the history count against the acked history sequence. Crash() drops
// only the unflushed tail and every acked commit was forced, so the check
// is exact after a reopen too.
func (e *tpcbEngine) verify() error {
	var acked int64
	wantHist := 0
	for _, c := range e.clients {
		acked += c.acked
		if c.histSeq < uint64(c.histCap) {
			wantHist += int(c.histSeq)
		} else {
			wantHist += int(c.histCap)
		}
	}
	for _, t := range []*heap.Table{e.acct, e.tell, e.brch} {
		var sum int64
		n := 0
		t.Scan(func(_ heap.RID, rec []byte) bool {
			sum += int64(binary.LittleEndian.Uint64(rec[offBalance:]))
			n++
			return true
		})
		if n != t.Cap {
			return fmt.Errorf("oracle: table %s holds %d records, want %d", t.Name, n, t.Cap)
		}
		if got := sum - int64(t.Cap)*initBalance; got != acked {
			return fmt.Errorf("oracle: table %s balance moved by %d, acked deltas sum to %d", t.Name, got, acked)
		}
	}
	if got := e.hist.Count(); got != wantHist {
		return fmt.Errorf("oracle: history holds %d records, want %d", got, wantHist)
	}
	if err := e.db.Audit(); err != nil {
		return fmt.Errorf("oracle: audit: %w", err)
	}
	return nil
}

func (e *tpcbEngine) space() (overhead, arena int) { return dbSpace(e.db) }

// dbSpace is the protection overhead of one database: codeword table and
// locator planes of its scheme plus one page codeword per arena page in
// each checkpoint image's metadata.
func dbSpace(db *core.DB) (overhead, arena int) {
	a := db.Internals().Arena
	overhead = 8 * a.NumPages()
	if tb, ok := db.Scheme().(interface{ Table() *region.Table }); ok {
		overhead += 8 * tb.Table().NumRegions() * (1 + tb.Table().NumPlanes())
	}
	return overhead, a.Size()
}

func (e *tpcbEngine) destroy() error {
	var err error
	if e.db != nil {
		err = e.db.Crash()
		e.db = nil
	}
	if rerr := os.RemoveAll(e.cfg.Dir); err == nil {
		err = rerr
	}
	return err
}
