package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/protect"
	"repro/internal/wal"
)

// slabArgs encodes testUndoOp arguments restoring the CURRENT bytes of
// [addr, addr+n) into transaction-lifetime slab memory; call it before
// the update it is to undo.
func slabArgs(txn *Txn, addr mem.Addr, n int) []byte {
	args := txn.UndoArgs(8 + n)
	copy(args, encodeTestUndo(addr, txn.db.arena.Slice(addr, n)))
	return args
}

func slabWrite(t *testing.T, txn *Txn, addr mem.Addr, data []byte) {
	t.Helper()
	u, err := txn.BeginUpdate(addr, len(data))
	if err != nil {
		t.Fatal(err)
	}
	copy(u.Bytes(), data)
	if err := u.End(); err != nil {
		t.Fatal(err)
	}
}

// slabUpdateUndoable is opUpdate with the logical-undo arguments built in
// the transaction's own slab (Txn.UndoArgs), as the heap layer does.
func slabUpdateUndoable(t *testing.T, txn *Txn, key wal.ObjectKey, addr mem.Addr, data []byte) {
	t.Helper()
	if err := txn.BeginOp(1, key); err != nil {
		t.Fatal(err)
	}
	args := slabArgs(txn, addr, len(data))
	slabWrite(t, txn, addr, data)
	if err := txn.CommitOp(1, key, wal.LogicalUndo{Op: testUndoOp, Key: key, Args: args}); err != nil {
		t.Fatal(err)
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// churn runs committed operations of mixed sizes so that the operation
// slab is rewound and refilled many times (small images share a chunk,
// 3000-byte ones spill into further chunks, a 9000-byte one takes a chunk
// of its own) and the transaction slab accumulates undo arguments.
func churn(t *testing.T, txn *Txn, rng *rand.Rand, ops int) {
	t.Helper()
	sizes := []int{1, 8, 100, 3000, 3000, 3000, 9000, 8}
	for i := 0; i < ops; i++ {
		n := sizes[i%len(sizes)]
		addr := mem.Addr(rng.Intn(txn.db.arena.Size() - n))
		slabUpdateUndoable(t, txn, wal.ObjectKey(1000+i), addr, randBytes(rng, n))
	}
}

func arenaCopy(db *DB) []byte { return append([]byte(nil), db.arena.Bytes()...) }

func checkRestored(t *testing.T, db *DB, want []byte, what string) {
	t.Helper()
	if got := db.arena.Bytes(); !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: arena differs from the pre-image at byte %d (and possibly beyond)", what, i)
			}
		}
	}
	if err := db.Audit(); err != nil {
		t.Fatalf("%s: audit: %v", what, err)
	}
}

// TestRollbackAfterSlabReuse: before-images and logical-undo arguments
// live in slabs that are rewound and refilled as the transaction runs, and
// the scratch itself moves from finished transactions to new ones. However
// much reuse precedes it, AbortOp, Abort and AbortPrepared must put back
// exactly the bytes that were there.
func TestRollbackAfterSlabReuse(t *testing.T) {
	for _, kind := range []protect.Kind{protect.KindBaseline, protect.KindPrecheck} {
		t.Run(kind.String(), func(t *testing.T) {
			db := testDB(t, protect.Config{Kind: kind})
			rng := rand.New(rand.NewSource(42))

			// A committed transaction leaves a non-trivial image and hands
			// its (well-used) scratch to the pool.
			seed, _ := db.Begin()
			churn(t, seed, rng, 40)
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}

			t.Run("AbortOp", func(t *testing.T) {
				txn, _ := db.Begin()
				churn(t, txn, rng, 25)
				want := arenaCopy(db)
				// An open operation with physical updates on both sides of a
				// committed nested operation: the nested commit must not
				// rewind the slab the outer before-images live in.
				if err := txn.BeginOp(1, 1); err != nil {
					t.Fatal(err)
				}
				slabWrite(t, txn, 64, randBytes(rng, 3000))
				slabWrite(t, txn, 5000, randBytes(rng, 3000))
				slabUpdateUndoable(t, txn, 2, 9000, randBytes(rng, 3000)) // nested, committed
				slabUpdateUndoable(t, txn, 3, 64, randBytes(rng, 9000))   // nested, overlaps the first write
				slabWrite(t, txn, 100, randBytes(rng, 700))
				if err := txn.AbortOp(); err != nil {
					t.Fatal(err)
				}
				checkRestored(t, db, want, "AbortOp")
				// The transaction carries on and commits.
				churn(t, txn, rng, 10)
				if err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			})

			// The undo stack shrinks below the first physical entry and a
			// later one lands lower: an aborted nested operation, then an
			// update directly in the outer one, then another nested
			// operation, whose BeginOp must not rewind the slab under the
			// outer before-image and its pending after-image.
			t.Run("AbortOp/outer update after nested abort", func(t *testing.T) {
				txn, _ := db.Begin()
				want := arenaCopy(db)
				if err := txn.BeginOp(1, 1); err != nil { // A
					t.Fatal(err)
				}
				if err := txn.BeginOp(1, 2); err != nil { // B, nested
					t.Fatal(err)
				}
				slabWrite(t, txn, 4000, randBytes(rng, 100))
				if err := txn.AbortOp(); err != nil { // B
					t.Fatal(err)
				}
				after := randBytes(rng, 500)
				slabWrite(t, txn, 64, after)              // directly in A
				if err := txn.BeginOp(1, 3); err != nil { // C, nested
					t.Fatal(err)
				}
				slabWrite(t, txn, 8000, randBytes(rng, 1000))
				if last := txn.entry.Redo[1]; last.Kind != wal.KindPhysRedo || !bytes.Equal(last.Data, after) {
					t.Fatal("A's pending after-image was overwritten by C's images")
				}
				if err := txn.AbortOp(); err != nil { // C
					t.Fatal(err)
				}
				if err := txn.AbortOp(); err != nil { // A
					t.Fatal(err)
				}
				checkRestored(t, db, want, "AbortOp of the outer operation")
				if err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			})

			// The same shrink by commits alone, three levels deep.
			t.Run("AbortOp/outer update after nested commits", func(t *testing.T) {
				txn, _ := db.Begin()
				want := arenaCopy(db)
				for key := wal.ObjectKey(1); key <= 3; key++ { // A, B, C
					if err := txn.BeginOp(1, key); err != nil {
						t.Fatal(err)
					}
				}
				// B's commit replaces C's logical undo with its own, so both
				// carry the arguments that put C's write back.
				args := slabArgs(txn, 4000, 100)
				slabWrite(t, txn, 4000, randBytes(rng, 100))
				for key := wal.ObjectKey(3); key >= 2; key-- { // commit C, then B
					if err := txn.CommitOp(1, key, wal.LogicalUndo{Op: testUndoOp, Key: key, Args: args}); err != nil {
						t.Fatal(err)
					}
				}
				slabWrite(t, txn, 64, randBytes(rng, 500))                // directly in A
				slabUpdateUndoable(t, txn, 4, 8000, randBytes(rng, 1000)) // D, nested
				if err := txn.AbortOp(); err != nil {                     // A
					t.Fatal(err)
				}
				checkRestored(t, db, want, "AbortOp after nested commits")
				if err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			})

			t.Run("Abort", func(t *testing.T) {
				want := arenaCopy(db)
				txn, _ := db.Begin() // draws the previous transaction's scratch
				churn(t, txn, rng, 60)
				// Abort with an operation still open, a committed nested
				// operation above its first physical update.
				if err := txn.BeginOp(1, 1); err != nil {
					t.Fatal(err)
				}
				slabWrite(t, txn, 200, randBytes(rng, 3000))
				slabUpdateUndoable(t, txn, 2, 300, randBytes(rng, 3000))
				slabWrite(t, txn, 12000, randBytes(rng, 100))
				if err := txn.Abort(); err != nil {
					t.Fatal(err)
				}
				checkRestored(t, db, want, "Abort")
			})

			t.Run("AbortPrepared", func(t *testing.T) {
				want := arenaCopy(db)
				txn, _ := db.Begin()
				churn(t, txn, rng, 30)
				if err := txn.Prepare(77); err != nil {
					t.Fatal(err)
				}
				// While it sits prepared, other transactions come and go on
				// other bytes, cycling the pool; the prepared transaction's
				// undo arguments must be untouched by them.
				preparedImage := arenaCopy(db)
				for i := 0; i < 3; i++ {
					other, _ := db.Begin()
					for j := 0; j < 20; j++ {
						slabUpdateUndoable(t, other, wal.ObjectKey(5000+j), mem.Addr(60000+j*8), randBytes(rng, 8))
					}
					if err := other.Abort(); err != nil {
						t.Fatal(err)
					}
				}
				checkRestored(t, db, preparedImage, "bystander aborts")
				if err := txn.AbortPrepared(); err != nil {
					t.Fatal(err)
				}
				checkRestored(t, db, want, "AbortPrepared")
			})
		})
	}
}

// TestCheckpointSnapshotOutlivesSlabReuse: a checkpoint copies the undo
// log of a transaction that is in the middle of an operation — physical
// undo entries pointing into the operation slab, logical ones into the
// transaction slab — and the transaction then carries on, rewinding and
// refilling those slabs. What the checkpoint encoded must equal an
// independent deep copy taken at the same instant, and real checkpoints
// running against the live transaction must be race-free (run under
// -race).
func TestCheckpointSnapshotOutlivesSlabReuse(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindDataCW})
	rng := rand.New(rand.NewSource(7))
	txn, _ := db.Begin()
	churn(t, txn, rng, 20)

	// Mid-operation: two physical undo entries on the stack, no bracket
	// open (a bracket holds the barrier a checkpoint needs).
	if err := txn.BeginOp(1, 1); err != nil {
		t.Fatal(err)
	}
	openArgs := slabArgs(txn, 128, 3000)
	slabWrite(t, txn, 128, randBytes(rng, 3000))
	slabWrite(t, txn, 1000, randBytes(rng, 64))

	// What Checkpoint does, plus the oracle, under the same barrier.
	db.barrier.Lock()
	encoded := wal.EncodeEntries(db.att.Snapshot())
	oracle := &wal.TxnEntry{ID: txn.entry.ID, State: txn.entry.State, GID: txn.entry.GID}
	for _, u := range txn.entry.Undo {
		u.Before = append([]byte(nil), u.Before...)
		u.Logical.Args = append([]byte(nil), u.Logical.Args...)
		oracle.Undo = append(oracle.Undo, u)
	}
	db.barrier.Unlock()
	if len(oracle.Undo) < 23 {
		t.Fatalf("snapshot taken with only %d undo entries", len(oracle.Undo))
	}

	// The transaction keeps running while checkpoints are taken for real.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	if err := txn.CommitOp(1, 1, wal.LogicalUndo{Op: testUndoOp, Key: 1, Args: openArgs}); err != nil {
		t.Fatal(err)
	}
	churn(t, txn, rng, 120)
	wg.Wait()

	if want := wal.EncodeEntries([]*wal.TxnEntry{oracle}); !bytes.Equal(encoded, want) {
		t.Fatal("the checkpointed undo log differs from a deep copy taken at the same instant")
	}
	// And the copy is usable: it decodes to the oracle's entries.
	dec, err := wal.DecodeEntries(encoded)
	if err != nil || len(dec) != 1 || len(dec[0].Undo) != len(oracle.Undo) {
		t.Fatalf("checkpointed ATT does not decode: %v", err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := db.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestScratchRetentionCap: a transaction that grew its scratch past the
// cap lets the garbage collector have it instead of passing it on.
func TestScratchRetentionCap(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), ArenaSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	txn, _ := db.Begin()
	big := txn.s
	slabUpdateUndoable(t, txn, 1, 0, make([]byte, maxRetained)) // images and undo arguments of 1 MiB each
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	next, _ := db.Begin()
	defer next.Abort()
	if next.s == big {
		t.Fatalf("a scratch holding %d bytes of slabs went back to the pool (cap %d)",
			big.opBuf.bytes+big.txnBuf.bytes, maxRetained)
	}
}
