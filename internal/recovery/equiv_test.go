package recovery

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/heap"
	"repro/internal/iofault"
	"repro/internal/protect"
	"repro/internal/wal"
)

// Restart-pipeline equivalence. A seeded generator drives one database
// through a random history — winners, aborts (compensation records),
// nested operations, losers left mid-operation, 2PC prepares with and
// without decisions, checkpoints with transactions in flight, and for the
// read-logging schemes a wild write that a carrier transaction spreads —
// then crashes it. Recovery's outcome (the arena, byte for byte, and the
// report) is compared with testdata/equiv_golden.json, which was written
// by this same test running on the pipeline of PR 12 (materialized
// []StreamRecord scan, an undo log for every transaction), before the
// streaming cursor and loser-only undo replaced it. A digest that moves
// means restart recovery changed what it recovers, not how fast.
//
// Regenerate with `go test ./internal/recovery -run TestRestartEquivalence
// -update-equiv` only for a change that is meant to alter the recovered
// bytes (a heap layout change, say), and say so in the commit.

var updateEquiv = flag.Bool("update-equiv", false, "rewrite testdata/equiv_golden.json from this run")

const equivGoldenPath = "testdata/equiv_golden.json"

// nestedUndoOp is the logical undo of the generator's level-2 operation,
// which wraps two heap updates: it restores both old values inside a
// level-2 compensation operation.
const (
	nestedUndoOp = 0xE7
	nestedLevel  = heap.OpLevel + 1
)

func init() {
	core.RegisterUndoOp(nestedUndoOp, func(txn *core.Txn, u wal.LogicalUndo) error {
		cat, err := heap.Open(txn.DB())
		if err != nil {
			return err
		}
		tb, err := cat.Table("t")
		if err != nil {
			return err
		}
		if err := txn.BeginOp(nestedLevel, u.Key); err != nil {
			return err
		}
		for args := u.Args; len(args) > 0; args = args[12:] {
			slot := binary.LittleEndian.Uint32(args)
			if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: slot}, 0, args[4:12]); err != nil {
				return err
			}
		}
		return txn.CommitCompensationOp(nestedLevel, u.Key)
	})
}

type equivCase struct {
	kind    protect.Kind
	streams int
	workers int  // core.Config.Workers: the pool that recomputes and certifies the recovered image
	fault   bool // wild write + carrier transaction; audited unless the scheme logs codewords
}

func (c equivCase) name(seed int64) string {
	return fmt.Sprintf("%s/S%d/w%d/fault=%v/seed%d", c.kind, c.streams, c.workers, c.fault, seed)
}

var equivCases = []equivCase{
	{protect.KindDataCW, 1, 1, false},
	{protect.KindDataCW, 1, 2, false},
	{protect.KindDataCW, 3, 1, false},
	{protect.KindDataCW, 3, 2, false},
	{protect.KindPrecheck, 1, 2, false},
	{protect.KindBaseline, 3, 2, false},
	{protect.KindReadLog, 1, 1, false},
	{protect.KindReadLog, 1, 2, true},
	{protect.KindReadLog, 3, 2, true},
	{protect.KindCWReadLog, 1, 2, false},
	{protect.KindCWReadLog, 1, 1, true},
	{protect.KindCWReadLog, 3, 2, true},
}

const (
	equivSlots = 64
	equivLanes = 8
)

// equivLane is one disjoint slice of the table's slots. At most one
// transaction is open per lane, so open transactions never wait for each
// other's locks in this single-goroutine generator.
type equivLane struct {
	txn     *core.Txn
	slots   []uint32
	alloc   map[uint32]bool // allocation as the open transaction sees it
	saved   map[uint32]bool // allocation when it began
	retired bool            // holds a loser or an in-doubt transaction for good
}

func (l *equivLane) pick(rng *rand.Rand, allocated bool) (uint32, bool) {
	var c []uint32
	for _, s := range l.slots {
		if l.alloc[s] == allocated {
			c = append(c, s)
		}
	}
	if len(c) == 0 {
		return 0, false
	}
	return c[rng.Intn(len(c))], true
}

func copyAlloc(m map[uint32]bool) map[uint32]bool {
	c := make(map[uint32]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// buildEquivHistory runs the seeded history in cfg.Dir and crashes the
// database.
func buildEquivHistory(t *testing.T, cfg core.Config, c equivCase, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := heap.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cat.CreateTable("t", 64, equivSlots)
	if err != nil {
		t.Fatal(err)
	}
	rid := func(s uint32) heap.RID { return heap.RID{Table: tb.ID, Slot: s} }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	setup, err := db.Begin()
	must(err)
	for s := uint32(0); s < equivSlots; s++ {
		must(tb.InsertAt(setup, rid(s), bytes.Repeat([]byte{byte(s + 1)}, 64)))
	}
	must(setup.Commit())
	must(db.Checkpoint())

	lanes := make([]*equivLane, equivLanes)
	for i := range lanes {
		l := &equivLane{alloc: map[uint32]bool{}}
		for s := uint32(i); s < equivSlots; s += equivLanes {
			l.slots = append(l.slots, s)
			l.alloc[s] = true
		}
		lanes[i] = l
	}
	// The last lane is never opened by the generator: it keeps committed
	// records for the fault to land on.
	faultLane, lanes := lanes[equivLanes-1], lanes[:equivLanes-1]
	openLane := func() *equivLane {
		var c []*equivLane
		for _, l := range lanes {
			if l.txn != nil && !l.retired {
				c = append(c, l)
			}
		}
		if len(c) == 0 {
			return nil
		}
		return c[rng.Intn(len(c))]
	}
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	retired, gid := 0, uint64(100)

	steps := 250 + rng.Intn(150)
	for i := 0; i < steps; i++ {
		switch a := rng.Intn(20); {
		case a < 3: // begin
			for _, l := range lanes {
				if l.txn == nil && !l.retired {
					l.txn, err = db.Begin()
					must(err)
					l.saved = copyAlloc(l.alloc)
					break
				}
			}
		case a < 8: // update
			if l := openLane(); l != nil {
				if s, ok := l.pick(rng, true); ok {
					off := rng.Intn(56)
					must(tb.Update(l.txn, rid(s), off, randBytes(1+rng.Intn(8))))
				}
			}
		case a < 10: // delete or insert
			if l := openLane(); l != nil {
				if s, ok := l.pick(rng, rng.Intn(2) == 0); ok {
					if l.alloc[s] {
						must(tb.Delete(l.txn, rid(s)))
					} else {
						must(tb.InsertAt(l.txn, rid(s), randBytes(64)))
					}
					l.alloc[s] = !l.alloc[s]
				}
			}
		case a < 12: // nested operation over two records
			if l := openLane(); l != nil {
				s1, ok1 := l.pick(rng, true)
				s2, ok2 := l.pick(rng, true)
				if ok1 && ok2 && s1 != s2 {
					equivNestedOp(t, l.txn, tb, s1, s2, randBytes(16), true)
				}
			}
		case a < 13: // read (a read-log record under the logging schemes)
			if l := openLane(); l != nil {
				if s, ok := l.pick(rng, true); ok {
					_, err := tb.Read(l.txn, rid(s))
					must(err)
				}
			}
		case a < 15: // commit
			if l := openLane(); l != nil {
				must(l.txn.Commit())
				l.txn = nil
			}
		case a < 16: // abort: compensation records, then an abort record
			if l := openLane(); l != nil {
				must(l.txn.Abort())
				l.txn, l.alloc = nil, l.saved
			}
		case a < 17: // 2PC
			if l := openLane(); l != nil {
				gid++
				must(l.txn.Prepare(gid))
				switch d := rng.Intn(4); {
				case d == 0:
					must(db.AppendDecision(gid, true))
					must(l.txn.CommitPrepared())
					l.txn = nil
				case d == 1:
					must(db.AppendDecision(gid, false))
					must(l.txn.AbortPrepared())
					l.txn, l.alloc = nil, l.saved
				case retired < 4: // in doubt at the crash, decided or not
					if d == 2 {
						must(db.AppendDecision(gid, rng.Intn(2) == 0))
					}
					l.retired = true
					retired++
				default:
					must(l.txn.CommitPrepared())
					l.txn = nil
				}
			}
		case a < 18: // loser left inside an open level-2 operation
			if l := openLane(); l != nil && retired < 4 {
				s1, ok1 := l.pick(rng, true)
				s2, ok2 := l.pick(rng, true)
				if ok1 && ok2 && s1 != s2 {
					equivNestedOp(t, l.txn, tb, s1, s2, randBytes(16), false)
					l.retired = true
					retired++
				}
			}
		case a < 19:
			must(db.Internals().Log.Flush())
		default: // a checkpoint with transactions in flight, early enough to leave a tail
			if i < steps*6/10 && rng.Intn(3) == 0 {
				must(db.Checkpoint())
			}
		}
	}

	if c.fault {
		// A wild write into a record no open transaction holds, a carrier
		// that reads it and writes elsewhere, and a second-generation reader.
		victims := faultLane.slots
		inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), seed)
		if trapped, err := inj.WildWrite(tb.RecordAddr(victims[0])+5, []byte{0xBA, 0xD1, 0xBA}); err != nil || trapped {
			t.Fatalf("wild write: trapped=%v err=%v", trapped, err)
		}
		for g := 0; g < 2; g++ {
			txn, err := db.Begin()
			must(err)
			v, err := tb.Read(txn, rid(victims[g]))
			must(err)
			must(tb.Update(txn, rid(victims[g+1]), 0, v[:8]))
			must(txn.Commit())
		}
		if c.kind != protect.KindCWReadLog {
			var ce *core.CorruptionError
			if err := db.Audit(); !errors.As(err, &ce) {
				t.Fatalf("audit should have detected the wild write: %v", err)
			}
		}
	}
	if rng.Intn(2) == 0 {
		must(db.Internals().Log.Flush())
	}
	must(db.Crash())
}

// equivNestedOp runs the generator's level-2 operation: two heap updates
// inside one outer operation. With commit false the outer operation is
// left open, its op-begin and the inner operations' records already in the
// log tail — the shape recovery must undo physically.
func equivNestedOp(t *testing.T, txn *core.Txn, tb *heap.Table, s1, s2 uint32, vals []byte, commit bool) {
	t.Helper()
	key := wal.ObjectKey(1<<62 | uint64(s1))
	if err := txn.BeginOp(nestedLevel, key); err != nil {
		t.Fatal(err)
	}
	args := txn.UndoArgs(24)
	for i, s := range []uint32{s1, s2} {
		r := heap.RID{Table: tb.ID, Slot: s}
		old, err := tb.ReadAt(txn, r, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(args[12*i:], s)
		copy(args[12*i+4:], old)
		if err := tb.Update(txn, r, 0, vals[8*i:8*i+8]); err != nil {
			t.Fatal(err)
		}
	}
	if !commit {
		return
	}
	if err := txn.CommitOp(nestedLevel, key, wal.LogicalUndo{Op: nestedUndoOp, Key: key, Args: args}); err != nil {
		t.Fatal(err)
	}
}

// equivDigest is what must not move: the recovered image and every
// report field that describes what recovery did (not how long it took).
func equivDigest(db *core.DB, rep *Report) string {
	sum := sha256.Sum256(db.Internals().Arena.Bytes())
	var gids []uint64
	for g := range rep.Decisions {
		gids = append(gids, g)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	var dec []string
	for _, g := range gids {
		dec = append(dec, fmt.Sprintf("%d=%v", g, rep.Decisions[g]))
	}
	return fmt.Sprintf("arena=%x scanned=%d applied=%d streams=%d corruption=%v cw=%v auditSN=%d seed=%v deleted=%v rolledback=%v indoubt=%v decisions=[%s] gaps=%v final=%v",
		sum[:12], rep.RecordsScanned, rep.RedoApplied, rep.LogStreams,
		rep.CorruptionMode, rep.CWMode, rep.AuditSN, rep.SeedCorrupt, rep.Deleted, rep.RolledBack,
		rep.InDoubt, strings.Join(dec, ","), rep.GSNGaps, rep.FinalCorrupt)
}

func equivConfig(t *testing.T, c equivCase) core.Config {
	cfg := testConfig(t, protect.Config{Kind: c.kind, RegionSize: 64})
	cfg.LogStreams = c.streams
	cfg.Workers = c.workers
	return cfg
}

func TestRestartEquivalence(t *testing.T) {
	golden := map[string]string{}
	if b, err := os.ReadFile(equivGoldenPath); err == nil {
		if err := json.Unmarshal(b, &golden); err != nil {
			t.Fatal(err)
		}
	} else if !*updateEquiv {
		t.Fatal(err)
	}
	got := map[string]string{}
	var mu sync.Mutex
	t.Run("cases", func(t *testing.T) {
		for _, c := range equivCases {
			for seed := int64(1); seed <= 4; seed++ {
				c, seed := c, seed
				t.Run(c.name(seed), func(t *testing.T) {
					t.Parallel()
					cfg := equivConfig(t, c)
					buildEquivHistory(t, cfg, c, seed)
					db, rep, err := Open(cfg, Options{})
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					d := equivDigest(db, rep)
					mu.Lock()
					got[c.name(seed)] = d
					mu.Unlock()
					if *updateEquiv {
						return
					}
					if want := golden[c.name(seed)]; d != want {
						t.Errorf("recovery outcome moved\n got  %s\n want %s", d, want)
					}
					if c.fault && !rep.CorruptionMode {
						t.Error("fault history did not reach corruption mode")
					}
				})
			}
		}
	})
	if *updateEquiv && !t.Failed() {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(equivGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(equivGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recordingFS hands recovery the real filesystem but remembers every
// buffer a File.ReadAt filled — the log buffers the restart pipeline
// aliases records out of — so a test can overwrite them once Open has
// returned.
type recordingFS struct {
	iofault.FS
	mu   sync.Mutex
	bufs [][]byte
}

func (r *recordingFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: f, fs: r}, nil
}

type recordingFile struct {
	iofault.File
	fs *recordingFS
}

func (f *recordingFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.fs.bufs = append(f.fs.bufs, p)
	f.fs.mu.Unlock()
	return f.File.ReadAt(p, off)
}

// TestRecoveredUndoLogsOwnTheirBytes: whatever outlives Open — the undo
// logs of in-doubt transactions, attached to the ATT until a decision
// arrives — must not point into the log buffers recovery scanned. Every
// buffer the pipeline read the log into is overwritten after Open returns;
// aborting the in-doubt transactions must still restore the exact values
// their records held before they ran.
func TestRecoveredUndoLogsOwnTheirBytes(t *testing.T) {
	for _, streams := range []int{1, 3} {
		t.Run(fmt.Sprintf("S%d", streams), func(t *testing.T) {
			cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
			cfg.LogStreams = streams
			db, tb := setupTable(t, cfg, 8)
			before := make([][]byte, 8)
			for s := range before {
				before[s] = readRec(t, db, tb, uint32(s))
			}
			for i := 0; i < 3; i++ {
				txn, err := db.Begin()
				if err != nil {
					t.Fatal(err)
				}
				s := uint32(2 * i)
				if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: s}, 3, bytes.Repeat([]byte{0xC0 + byte(i)}, 40)); err != nil {
					t.Fatal(err)
				}
				if err := tb.Delete(txn, heap.RID{Table: tb.ID, Slot: s + 1}); err != nil {
					t.Fatal(err)
				}
				if err := txn.Prepare(uint64(500 + i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}

			rfs := &recordingFS{FS: iofault.OS}
			cfg.FS = rfs
			db2, tb2, rep := reopen(t, cfg, Options{})
			defer db2.Close()
			if len(rep.InDoubt) != 3 {
				t.Fatalf("in-doubt = %v, want 3 transactions", rep.InDoubt)
			}
			poisoned := 0
			for _, b := range rfs.bufs {
				for i := range b {
					b[i] = 0xDB
				}
				poisoned += len(b)
			}
			if poisoned == 0 {
				t.Fatal("recovery read nothing through File.ReadAt; the test poisons no log buffer")
			}
			for _, id := range rep.InDoubt {
				txn, err := db2.AdoptPrepared(db2.Internals().ATT.Lookup(id.ID))
				if err != nil {
					t.Fatal(err)
				}
				if err := txn.AbortPrepared(); err != nil {
					t.Fatal(err)
				}
			}
			for s := range before {
				if got := readRec(t, db2, tb2, uint32(s)); !bytes.Equal(got, before[s]) {
					t.Fatalf("slot %d after rollback = %x, want the before-image %x", s, got[:8], before[s][:8])
				}
			}
			audit(t, db2)
		})
	}
}
