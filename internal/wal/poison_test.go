package wal

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/iofault"
)

// TestPoisonUnderConcurrency hammers a log whose nth fsync fails with
// many concurrent committers. The fail-stop contract, checked under
// -race: no commit is acknowledged after the poison, every blocked waiter
// wakes with ErrLogPoisoned rather than hanging, and the stable end never
// moves again.
func TestPoisonUnderConcurrency(t *testing.T) {
	for _, failN := range []uint64{1, 2, 5} {
		dir := t.TempDir()
		fsys := iofault.NewFaultFS(dir)
		fsys.FailNthSync(failN)
		l, err := OpenSystemLogFS(fsys, dir, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}

		const goroutines = 8
		const perG = 25
		var wg sync.WaitGroup
		var mu sync.Mutex
		acked := 0
		poisonedSeen := 0
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					id := TxnID(g*perG + i + 1)
					err := l.AppendAndFlush(
						&Record{Kind: KindTxnBegin, Txn: id},
						&Record{Kind: KindTxnCommit, Txn: id},
					)
					mu.Lock()
					if err == nil {
						acked++
					} else if errors.Is(err, ErrLogPoisoned) {
						poisonedSeen++
					} else {
						mu.Unlock()
						t.Errorf("commit error is neither nil nor ErrLogPoisoned: %v", err)
						return
					}
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait() // hanging here would mean a waiter was never woken

		if poisonedSeen == 0 {
			t.Fatalf("failN=%d: fsync failure never surfaced to a committer", failN)
		}
		if err := l.Poisoned(); !errors.Is(err, ErrLogPoisoned) {
			t.Fatalf("failN=%d: Poisoned() = %v", failN, err)
		}
		// The poison is permanent and the stable end frozen.
		endBefore := l.StableEnd()
		if err := l.Append(&Record{Kind: KindTxnBegin, Txn: 9999}); !errors.Is(err, ErrLogPoisoned) {
			t.Fatalf("failN=%d: append after poison = %v", failN, err)
		}
		if err := l.Flush(); !errors.Is(err, ErrLogPoisoned) {
			t.Fatalf("failN=%d: flush after poison = %v", failN, err)
		}
		if l.StableEnd() != endBefore {
			t.Fatalf("failN=%d: stable end moved after poison", failN)
		}
		if err := l.Close(); !errors.Is(err, ErrLogPoisoned) {
			t.Fatalf("failN=%d: close after poison = %v", failN, err)
		}

		// Every record the stable log retains decodes cleanly: the poisoned
		// tail never leaked to disk.
		count := 0
		if err := scanLog(dir, 0, func(r *Record) bool { count++; return true }); err != nil {
			t.Fatalf("failN=%d: scan after poison: %v", failN, err)
		}
		if 2*acked > count {
			// Acked commits must be durable (each wrote two records). Other
			// records may be present (appended but unacknowledged), never
			// fewer.
			t.Fatalf("failN=%d: %d records on disk but %d commits acked", failN, count, acked)
		}
	}
}
