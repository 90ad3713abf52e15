package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wire"
)

// The kv_wire driver: an in-process wire.Server on a loopback listener
// over a 2-shard router, driven by synchronous wire.Client connections.
// Each transaction is Begin + 4 x (Get, Put) + Commit on account, teller,
// branch and history shaped keys, touched in ascending key order; the
// teller, branch and history slot come from the client's home shard and
// the account from the other shard 15% of the time, which makes the
// commit a presumed-abort 2PC.
//
// No two clients ever touch the same key: a Get takes a shared lock that
// the Put upgrades, the wire protocol has no way to lock for update, and
// two clients upgrading the same key wait for each other until the 2 s
// lock timeout. So each shard's accounts are split in two halves, one for
// the client homed there and one for the client that comes from the other
// shard. What the two clients do share is each shard's log, latches and
// 2PC machinery.

const (
	kvShards    = 2
	kvValueSize = recSize
	kvCrossPct  = 15
)

// Key classes live in disjoint ranges so a key's class is its high word.
const (
	classAccount = iota
	classTeller
	classBranch
	classHistory
	numClasses
)

type kvEngine struct {
	sp  *spec
	sz  sizing
	cfg shard.Config

	router  *shard.Router
	srv     *wire.Server
	served  chan error
	clients []*kvClient
	states  []*clientState

	// keys[s][class] are the preloaded keys that route to shard s.
	keys [kvShards][numClasses][]uint64
}

type kvClient struct {
	clientState
	e    *kvEngine
	home int
	conn *wire.Client

	// This client's share of its home shard's teller, branch and history
	// keys (clients homed on one shard split them).
	tellers, branches, ring []uint64

	histSeq uint64
	acked   int64
}

func newKVEngine(sp *spec, sz sizing, dir string, seed int64, spanCap int, epoch time.Time) *kvEngine {
	e := &kvEngine{sp: sp, sz: sz}
	perShard := sz.kvAccounts + sz.kvTellers + sz.kvBranches + sz.kvHistory
	buckets := 1
	for buckets < 2*perShard {
		buckets <<= 1
	}
	// Table, allocation bitmap and the hash index (24-byte slots, twice
	// the capacity rounded up to a power of two), plus page-rounding slack.
	arena := perShard*(10+kvValueSize) + perShard/8 + buckets*24 + 16*4096
	e.cfg = shard.Config{Dir: dir, Shards: kvShards, ArenaSize: arena, ValueSize: kvValueSize, Capacity: perShard}
	e.cfg.Protect.Kind = sp.kind
	for i := 0; i < sp.effectiveClients(); i++ {
		c := &kvClient{clientState: newClientState(i, seed, spanCap, epoch), e: e, home: i % kvShards}
		e.clients = append(e.clients, c)
		e.states = append(e.states, &c.clientState)
	}
	return e
}

func (e *kvEngine) setup() error {
	r, _, err := shard.Open(e.cfg)
	if err != nil {
		return err
	}
	e.router = r
	want := [numClasses]int{e.sz.kvAccounts, e.sz.kvTellers, e.sz.kvBranches, e.sz.kvHistory}
	for class := 0; class < numClasses; class++ {
		missing := kvShards
		for i := uint64(0); missing > 0; i++ {
			key := uint64(class+1)<<32 | i
			s := r.ShardFor(key)
			if len(e.keys[s][class]) < want[class] {
				e.keys[s][class] = append(e.keys[s][class], key)
				if len(e.keys[s][class]) == want[class] {
					missing--
				}
			}
		}
	}
	// Load shard by shard so no load transaction is cross-shard.
	val := make([]byte, kvValueSize)
	for s := 0; s < kvShards; s++ {
		var all []uint64
		for class := 0; class < numClasses; class++ {
			all = append(all, e.keys[s][class]...)
		}
		for lo := 0; lo < len(all); lo += loadBatch {
			txn := r.Begin()
			for i := lo; i < lo+loadBatch && i < len(all); i++ {
				binary.LittleEndian.PutUint64(val, initBalance)
				binary.LittleEndian.PutUint64(val[8:], 0)
				if err := txn.Put(all[i], val); err != nil {
					txn.Abort()
					return err
				}
			}
			if err := txn.Commit(); err != nil {
				return err
			}
		}
	}
	if err := r.Checkpoint(); err != nil {
		return err
	}
	// Clients homed on the same shard split its keys between them.
	homed, seen := [kvShards]int{}, [kvShards]int{}
	for _, c := range e.clients {
		homed[c.home]++
	}
	for _, c := range e.clients {
		part := func(class int) []uint64 {
			ks := e.keys[c.home][class]
			n := len(ks) / homed[c.home]
			return ks[seen[c.home]*n : (seen[c.home]+1)*n]
		}
		c.tellers, c.branches, c.ring = part(classTeller), part(classBranch), part(classHistory)
		seen[c.home]++
	}
	return e.serve()
}

// serve starts the wire server on a loopback listener and connects the
// clients.
func (e *kvEngine) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = wire.NewServer(e.router, wire.ServerConfig{})
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	for _, c := range e.clients {
		if c.conn, err = wire.Dial(ln.Addr().String()); err != nil {
			return err
		}
	}
	return nil
}

// unserve disconnects the clients, drains the server and waits for its
// accept loop to return.
func (e *kvEngine) unserve() error {
	if e.srv == nil {
		return nil
	}
	for _, c := range e.clients {
		if c.conn != nil {
			c.conn.Close()
			c.conn = nil
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; err == nil {
		err = serr
	}
	e.srv = nil
	return err
}

// warm runs every client once around its history ring. The keys are all
// preloaded, so this warms caches and connections, nothing else.
func (e *kvEngine) warm() error {
	_, err := e.window(len(e.clients[0].ring)*len(e.clients), false)
	return err
}

func (e *kvEngine) window(units int, traced bool) (windowResult, error) {
	return runWindow(e.states, units/len(e.clients), traced, func(i, per int) (int, error) {
		return e.clients[i].run(per)
	})
}

// run executes txns transactions. A request the server answers with an
// error aborts the transaction, which then counts as failed; a broken
// connection or a failed abort stops the run.
func (c *kvClient) run(txns int) (committed int, err error) {
	e := c.e
	for i := 0; i < txns; i++ {
		c.attempts++
		c.txn++
		acctShard := c.home
		if c.rng.Intn(100) < kvCrossPct {
			acctShard = (c.home + 1) % kvShards
			c.cross++
		}
		pick := func(ks []uint64) uint64 { return ks[c.rng.Intn(len(ks))] }
		accounts := e.keys[acctShard][classAccount]
		if half := len(accounts) / 2; acctShard == c.home {
			accounts = accounts[:half]
		} else {
			accounts = accounts[half:]
		}
		hist := c.ring[c.histSeq%uint64(len(c.ring))]
		keys := [4]uint64{pick(accounts), pick(c.tellers), pick(c.branches), hist}
		slices.Sort(keys[:])
		delta := int64(c.rng.Intn(1999) - 999)

		t0 := time.Now()
		root := c.tr.begin(spTxn, -1, c.txn)
		s := c.tr.begin(spWireBegin, root, c.txn)
		err := c.conn.Begin()
		c.tr.end(s)
		if err != nil {
			return committed, fmt.Errorf("begin: %w", err)
		}
		var opErr error
		for _, k := range keys {
			if opErr = c.bump(root, k, k == hist, delta); opErr != nil {
				break
			}
		}
		if opErr == nil {
			kind := spWireCommit
			if acctShard != c.home {
				kind = spWireCommitCross
			}
			s = c.tr.begin(kind, root, c.txn)
			opErr = c.conn.Commit()
			c.tr.end(s)
			if opErr == nil {
				c.tr.end(root)
				c.lat = append(c.lat, int64(time.Since(t0)))
				c.histSeq++
				c.acked += delta
				committed++
				continue
			}
		}
		// The server refused a request (a lock timeout, a failed
		// prepare): the transaction is rolled back and counted.
		var remote *wire.RemoteError
		if !errors.As(opErr, &remote) {
			return committed, opErr
		}
		fmt.Fprintf(os.Stderr, "bench: %s: client %d: transaction aborted: %v\n", e.sp.name, c.id, opErr)
		s = c.tr.begin(spWireAbort, root, c.txn)
		err = c.conn.Abort()
		c.tr.end(s)
		c.tr.end(root)
		if err != nil && !errors.As(err, &remote) {
			return committed, fmt.Errorf("abort after %v: %w", opErr, err)
		}
		c.failed++
	}
	return committed, nil
}

// bump is one Get + Put: a balance update, or for the history key the
// new sequence number and delta.
func (c *kvClient) bump(parent int32, key uint64, isHist bool, delta int64) error {
	s := c.tr.begin(spWireGet, parent, c.txn)
	val, err := c.conn.Get(key)
	c.tr.end(s)
	if err != nil {
		return err
	}
	if len(val) != kvValueSize {
		return fmt.Errorf("key %#x: value is %d bytes, want %d", key, len(val), kvValueSize)
	}
	if isHist {
		binary.LittleEndian.PutUint64(val[8:], c.histSeq+1)
		binary.LittleEndian.PutUint64(val[16:], uint64(delta))
	} else {
		binary.LittleEndian.PutUint64(val, binary.LittleEndian.Uint64(val)+uint64(delta))
	}
	s = c.tr.begin(spWirePut, parent, c.txn)
	err = c.conn.Put(key, val)
	c.tr.end(s)
	return err
}

// pingRTT is the median round trip of an empty request, in microseconds.
func (e *kvEngine) pingRTT() (float64, error) {
	c := e.clients[0].conn
	samples := make([]float64, 0, e.sz.pings)
	for i := 0; i < e.sz.pings; i++ {
		t0 := time.Now()
		if err := c.Ping(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0))/1e3)
	}
	return median(samples), nil
}

func (e *kvEngine) checkpoint() error  { return e.router.Checkpoint() }
func (e *kvEngine) tracers() []*tracer { return tracersOf(e.states) }

func (e *kvEngine) metrics() obs.Snapshot {
	out := emptySnap()
	for _, s := range e.router.Metrics() {
		addSnap(&out, s)
	}
	return out
}

// crashReopen stops the front end, crashes every shard and reopens the
// router: parallel per-shard restart recovery plus in-doubt resolution.
func (e *kvEngine) crashReopen() (time.Duration, recoveryInfo, error) {
	if err := e.unserve(); err != nil {
		return 0, recoveryInfo{}, err
	}
	start := time.Now()
	for i := 0; i < kvShards; i++ {
		if err := e.router.DB(i).Crash(); err != nil {
			return 0, recoveryInfo{}, err
		}
	}
	r, rep, err := shard.Open(e.cfg)
	if err != nil {
		return 0, recoveryInfo{}, err
	}
	ready := time.Since(start)
	e.router = r
	var ri recoveryInfo
	for i, p := range rep.PerShard {
		ri.recordsScanned += p.RecordsScanned
		ri.redoApplied += p.RedoApplied
		ri.parallelNS += float64(r.DB(i).Metrics().Histogram(obs.NameRecoveryParallelNS).Sum)
	}
	return ready, ri, e.serve()
}

// verify reads every key back through the router. The account, teller
// and branch balances, summed across both shards, must each have moved by
// exactly the sum of acked deltas — a cross-shard transaction that
// committed on one shard only would break the account sum — and every
// client's history ring must hold its acked sequence numbers.
func (e *kvEngine) verify() error {
	var acked int64
	for _, c := range e.clients {
		acked += c.acked
	}
	read := func(keys []uint64, fn func(key uint64, val []byte) error) error {
		for lo := 0; lo < len(keys); lo += loadBatch {
			txn := e.router.Begin()
			for i := lo; i < lo+loadBatch && i < len(keys); i++ {
				val, err := txn.Get(keys[i])
				if err == nil {
					err = fn(keys[i], val)
				}
				if err != nil {
					txn.Abort()
					return fmt.Errorf("oracle: key %#x: %w", keys[i], err)
				}
			}
			if err := txn.Commit(); err != nil {
				return err
			}
		}
		return nil
	}
	for class, name := range []string{"account", "teller", "branch"} {
		var sum int64
		n := 0
		for s := 0; s < kvShards; s++ {
			err := read(e.keys[s][class], func(_ uint64, val []byte) error {
				sum += int64(binary.LittleEndian.Uint64(val))
				n++
				return nil
			})
			if err != nil {
				return err
			}
		}
		if got := sum - int64(n)*initBalance; got != acked {
			return fmt.Errorf("oracle: %s balances moved by %d across shards, acked deltas sum to %d", name, got, acked)
		}
	}
	for _, c := range e.clients {
		ring := uint64(len(c.ring))
		slot := uint64(0)
		err := read(c.ring, func(_ uint64, val []byte) error {
			// The last acked sequence number that landed on this slot
			// (sequence n was written to slot (n-1) mod ring).
			var want uint64
			if c.histSeq > slot {
				want = c.histSeq - (c.histSeq-1-slot)%ring
			}
			slot++
			if got := binary.LittleEndian.Uint64(val[8:]); got != want {
				return fmt.Errorf("history sequence %d, want %d (client %d acked %d)", got, want, c.id, c.histSeq)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if err := e.router.Audit(); err != nil {
		return fmt.Errorf("oracle: audit: %w", err)
	}
	return nil
}

func (e *kvEngine) space() (overhead, arena int) {
	for i := 0; i < kvShards; i++ {
		o, a := dbSpace(e.router.DB(i))
		overhead, arena = overhead+o, arena+a
	}
	return overhead, arena
}

func (e *kvEngine) destroy() error {
	err := e.unserve()
	if e.router != nil {
		for i := 0; i < kvShards; i++ {
			if cerr := e.router.DB(i).Crash(); err == nil {
				err = cerr
			}
		}
		e.router = nil
	}
	if rerr := os.RemoveAll(e.cfg.Dir); err == nil {
		err = rerr
	}
	for s := range e.keys {
		for class := range e.keys[s] {
			e.keys[s][class] = nil
		}
	}
	return err
}
