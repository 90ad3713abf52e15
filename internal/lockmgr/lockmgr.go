// Package lockmgr provides the transaction lock manager for the
// reproduced storage manager. In the multi-level recovery model (paper
// §2.1), lower-level operations take operation locks on the objects they
// touch, and a committed operation's locks may be released before the
// enclosing transaction commits; the transaction retains higher-level
// locks for strict two-phase locking at its own level.
//
// This manager provides shared and exclusive locks on object keys with
// re-entrancy, shared-to-exclusive upgrade, FIFO-fair wakeups, and
// timeout-based deadlock resolution. Lock tables are exactly the kind of
// transient control structure the paper excludes from codeword protection
// (§3, "Control Structures"), so the manager lives outside the protected
// arena.
package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	// Shared permits concurrent readers.
	Shared Mode = iota + 1
	// Exclusive permits a single owner.
	Exclusive
)

func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ErrTimeout reports that a lock wait exceeded the manager's timeout;
// the caller should treat this as a deadlock victim notice and roll the
// transaction back.
var ErrTimeout = errors.New("lockmgr: lock wait timeout (possible deadlock)")

// Manager is a lock manager over object keys.
type Manager struct {
	mu    sync.Mutex
	locks map[wal.ObjectKey]*lockState
	// held lists the keys each transaction holds — what ReleaseAll walks.
	// The mode is answered by the key's own (short) holder list.
	held map[wal.TxnID][]wal.ObjectKey
	// free and freeKeys recycle lock states and key lists, so an
	// uncontended lock and its release allocate nothing once the manager
	// has seen its working set. Both are bounded (maxFree), so a bulk load
	// that locks a table's worth of keys returns the excess to the garbage
	// collector. A constant: it only has to exceed an ordinary
	// transaction's footprint (500 TPC-B operations hold ~2,500 keys).
	free     []*lockState
	freeKeys [][]wal.ObjectKey
	timeout  time.Duration

	mAcquires *obs.Counter
	mWaits    *obs.Counter
	mTimeouts *obs.Counter
	mCancels  *obs.Counter
	hWaitNS   *obs.Histogram
}

// maxFree bounds the pooled lock states (~128 B each) and the capacity,
// in keys, of a pooled per-transaction key list.
const maxFree = 4096

// SetRegistry wires the manager's acquire/wait/timeout counters and the
// wait-duration histogram into reg. Must be called before concurrent use
// (core.Open does this while building the database).
func (m *Manager) SetRegistry(reg *obs.Registry) {
	m.mAcquires = reg.Counter(obs.NameLockAcquires)
	m.mWaits = reg.Counter(obs.NameLockWaits)
	m.mTimeouts = reg.Counter(obs.NameLockTimeouts)
	m.mCancels = reg.Counter(obs.NameLockCancels)
	m.hWaitNS = reg.Histogram(obs.NameLockWaitNS)
}

type holder struct {
	txn  wal.TxnID
	mode Mode
}

// lockState is the state of one locked (or waited-for) key. It is in
// Manager.locks exactly while it has a holder or a waiter, and in
// Manager.free otherwise. Guarded by Manager.mu, which is also cond's lock.
type lockState struct {
	holders []holder // on inline until more than two transactions share the key
	inline  [2]holder
	waiters int
	cond    sync.Cond
}

// New returns a manager with the given lock-wait timeout. A zero timeout
// disables waiting entirely (lock conflicts fail immediately), which is
// useful in tests.
func New(timeout time.Duration) *Manager {
	return &Manager{
		locks:   make(map[wal.ObjectKey]*lockState),
		held:    make(map[wal.TxnID][]wal.ObjectKey),
		timeout: timeout,
	}
}

// newStateLocked installs an idle state for key, pooled if there is one.
func (m *Manager) newStateLocked(key wal.ObjectKey) *lockState {
	var s *lockState
	if n := len(m.free); n > 0 {
		s, m.free = m.free[n-1], m.free[:n-1]
	} else {
		s = &lockState{}
		s.cond.L = &m.mu
	}
	s.holders = s.inline[:0]
	m.locks[key] = s
	return s
}

// modeOf reports the mode txn holds on the key (0 if none).
func (s *lockState) modeOf(txn wal.TxnID) Mode {
	for i := range s.holders {
		if s.holders[i].txn == txn {
			return s.holders[i].mode
		}
	}
	return 0
}

// compatible reports whether txn may acquire key in mode given current
// holders.
func (s *lockState) compatible(txn wal.TxnID, mode Mode) bool {
	for _, h := range s.holders {
		if h.txn == txn {
			continue // own lock: upgrade handled by caller
		}
		if mode == Exclusive || h.mode == Exclusive {
			return false
		}
	}
	return true
}

// grantLocked records that txn holds key in mode: an upgrade rewrites the
// hold, a first acquisition adds the holder and lists the key.
func (m *Manager) grantLocked(s *lockState, txn wal.TxnID, key wal.ObjectKey, mode Mode) {
	m.mAcquires.Inc()
	for i := range s.holders {
		if s.holders[i].txn == txn {
			s.holders[i].mode = mode
			return
		}
	}
	s.holders = append(s.holders, holder{txn, mode})
	keys, ok := m.held[txn]
	if !ok {
		if n := len(m.freeKeys); n > 0 {
			keys, m.freeKeys = m.freeKeys[n-1], m.freeKeys[:n-1]
		}
	}
	m.held[txn] = append(keys, key)
}

// Lock acquires key in mode on behalf of txn, blocking until the lock is
// granted or the timeout elapses. Re-acquiring an already-held lock is a
// no-op (a shared re-acquire never downgrades an exclusive hold); holding
// shared and requesting exclusive performs an upgrade.
func (m *Manager) Lock(txn wal.TxnID, key wal.ObjectKey, mode Mode) error {
	return m.LockCtx(context.Background(), txn, key, mode)
}

// LockCtx is Lock with a context bounding the wait: cancellation or a
// deadline expiring while the call is queued behind a conflicting holder
// fails the acquisition with the context's error (the lock is not taken).
// A context that ends before any wait was necessary does not prevent an
// immediately compatible grant.
func (m *Manager) LockCtx(ctx context.Context, txn wal.TxnID, key wal.ObjectKey, mode Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	if m.tryLocked(txn, key, mode) {
		return nil
	}
	// A conflicting holder exists (and so does the state); a shared holder
	// asking for exclusive upgrades through the same wait loop.
	s := m.locks[key]
	var deadline, waitStart time.Time
	waited := false
	for !s.compatible(txn, mode) {
		if err := ctx.Err(); err != nil {
			m.mCancels.Inc()
			if waited {
				m.hWaitNS.Since(waitStart)
			}
			return fmt.Errorf("lockmgr: txn %d, key %d (%s): %w", txn, key, mode, err)
		}
		if m.timeout == 0 || (waited && time.Now().After(deadline)) {
			m.mTimeouts.Inc()
			var wait time.Duration
			if waited {
				wait = time.Since(waitStart)
			}
			m.hWaitNS.ObserveDuration(wait)
			return fmt.Errorf("%w: txn %d, key %d (%s)", ErrTimeout, txn, key, mode)
		}
		if !waited {
			waited = true
			m.mWaits.Inc()
			waitStart = time.Now()
			deadline = waitStart.Add(m.timeout)
			// A single watchdog per wait broadcasts when the deadline
			// passes or the context ends, so the condition loop can
			// observe either without polling.
			stop := make(chan struct{})
			defer close(stop)
			go m.watchWait(ctx, s, deadline, stop)
		}
		s.waiters++
		s.cond.Wait()
		s.waiters--
	}
	if waited {
		m.hWaitNS.Since(waitStart)
	}
	m.grantLocked(s, txn, key, mode)
	return nil
}

// watchWait wakes the waiters on s when deadline passes or ctx ends;
// stop (closed when the waiting call returns) bounds its lifetime.
func (m *Manager) watchWait(ctx context.Context, s *lockState, deadline time.Time, stop <-chan struct{}) {
	t := time.NewTimer(time.Until(deadline) + time.Millisecond)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	case <-stop:
		return
	}
	m.mu.Lock()
	s.cond.Broadcast()
	m.mu.Unlock()
}

// TryLock acquires without waiting; it reports false on conflict.
func (m *Manager) TryLock(txn wal.TxnID, key wal.ObjectKey, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tryLocked(txn, key, mode)
}

// tryLocked takes the lock if that needs no wait: the key is free, txn
// already holds it at least as strongly, or every other holder is
// compatible. A refusal leaves no trace.
func (m *Manager) tryLocked(txn wal.TxnID, key wal.ObjectKey, mode Mode) bool {
	s := m.locks[key]
	if s == nil {
		s = m.newStateLocked(key)
	} else if cur := s.modeOf(txn); cur == Exclusive || cur == mode {
		return true
	} else if !s.compatible(txn, mode) {
		return false
	}
	m.grantLocked(s, txn, key, mode)
	return true
}

// Unlock releases txn's lock on key.
func (m *Manager) Unlock(txn wal.TxnID, key wal.ObjectKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.releaseLocked(txn, key) {
		return
	}
	keys := m.held[txn]
	if i := slices.Index(keys, key); i >= 0 {
		keys = slices.Delete(keys, i, i+1)
	}
	if len(keys) == 0 {
		m.dropKeysLocked(txn, keys)
	} else {
		m.held[txn] = keys
	}
}

// ReleaseAll releases every lock held by txn (transaction end).
func (m *Manager) ReleaseAll(txn wal.TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys, ok := m.held[txn]
	if !ok {
		return
	}
	for _, key := range keys {
		m.releaseLocked(txn, key)
	}
	m.dropKeysLocked(txn, keys)
}

// dropKeysLocked forgets txn's key list and pools its storage.
func (m *Manager) dropKeysLocked(txn wal.TxnID, keys []wal.ObjectKey) {
	delete(m.held, txn)
	if cap(keys) <= maxFree {
		m.freeKeys = append(m.freeKeys, keys[:0])
	}
}

// releaseLocked drops txn from key's holders, waking the key's waiters or
// retiring its state, and reports whether txn held it.
func (m *Manager) releaseLocked(txn wal.TxnID, key wal.ObjectKey) bool {
	s := m.locks[key]
	if s == nil {
		return false
	}
	for i := range s.holders {
		if s.holders[i].txn != txn {
			continue
		}
		last := len(s.holders) - 1
		s.holders[i] = s.holders[last]
		s.holders = s.holders[:last]
		switch {
		case s.waiters > 0:
			// Never pooled with a waiter: it sleeps on this state's cond.
			s.cond.Broadcast()
		case last == 0:
			delete(m.locks, key)
			if len(m.free) < maxFree {
				m.free = append(m.free, s)
			}
		}
		return true
	}
	return false
}

// HeldMode reports the mode txn holds on key (0 if none).
func (m *Manager) HeldMode(txn wal.TxnID, key wal.ObjectKey) Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.locks[key]; s != nil {
		return s.modeOf(txn)
	}
	return 0
}

// HeldCount reports how many locks txn holds.
func (m *Manager) HeldCount(txn wal.TxnID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held[txn])
}
