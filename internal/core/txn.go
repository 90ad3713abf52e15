package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/lockmgr"
	"repro/internal/mem"
	"repro/internal/protect"
	"repro/internal/wal"
)

// Txn is a transaction. A transaction's work is structured as lower-level
// operations (BeginOp / CommitOp) containing physical updates
// (BeginUpdate / Update.End) and reads (Read), per the multi-level model
// of §2.1. Transactions are not safe for concurrent use by multiple
// goroutines; different transactions may run concurrently.
type Txn struct {
	db    *DB
	entry *wal.TxnEntry
	done  bool
	// ctx is the transaction's context (BeginCtx): it bounds lock waits
	// and the commit-time group-commit wait. Begin installs
	// context.Background(), so the zero-cost path never checks a channel.
	ctx context.Context
	// recoveryMode marks transactions adopted by restart recovery: lock
	// acquisition is skipped (recovery runs single-threaded, and the
	// original locks died with the crash).
	recoveryMode bool
	// prepared marks a transaction that has entered the prepared state of
	// two-phase commit: no further work is accepted, only
	// CommitPrepared/AbortPrepared.
	prepared bool
	// pendingUpdate guards against overlapping update brackets.
	pendingUpdate bool
	// upd is the open update bracket: brackets cannot overlap, so the
	// transaction holds the only one by value.
	upd Update
	// opRedoMarks records len(entry.Redo) at each BeginOp so AbortOp can
	// discard exactly the aborted operation's pending records.
	opRedoMarks []int
	// s holds the slabs the transaction's log records, images and
	// logical-undo arguments live in (slab.go); finish returns it.
	s *txnScratch
}

// ErrTxnDone is returned by operations on a committed or aborted
// transaction.
var ErrTxnDone = errors.New("core: transaction already completed")

// ErrTxnPrepared is returned when work is attempted on a transaction in
// the prepared state: between Prepare and CommitPrepared/AbortPrepared a
// participant may not read, update, or unilaterally commit.
var ErrTxnPrepared = errors.New("core: transaction is prepared (awaiting 2PC decision)")

// ErrCommitUnresolved reports that the transaction's context ended while
// its commit record was waiting in the group-commit queue. The record is
// in the log tail and may still become durable through a later force, so
// the outcome is unknown to this caller: the transaction is neither
// reusable nor abortable, and only the log (via restart recovery, or a
// later observer) resolves whether it committed.
var ErrCommitUnresolved = errors.New("core: commit outcome unresolved (context ended during group-commit wait)")

// Begin starts a transaction.
func (db *DB) Begin() (*Txn, error) {
	return db.BeginCtx(context.Background())
}

// BeginCtx starts a transaction bound to ctx: lock waits (Txn.Lock) and
// the commit-time group-commit wait honor its cancellation and deadline.
// The context does not auto-abort the transaction — a caller whose
// context ends mid-transaction should call Abort (after a failed Lock or
// Read) and must treat ErrCommitUnresolved from Commit as an unknown
// outcome.
func (db *DB) BeginCtx(ctx context.Context) (*Txn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: begin txn: %w", err)
	}
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.barrier.RLock()
	if db.closed.Load() { // Close drains the barrier before unmapping
		db.barrier.RUnlock()
		return nil, ErrClosed
	}
	entry := db.att.Begin()
	if err := db.log.Append(&wal.Record{Kind: wal.KindTxnBegin, Txn: entry.ID}); err != nil {
		// Poisoned log: the transaction can never commit, so don't admit it.
		db.att.Remove(entry.ID)
		db.barrier.RUnlock()
		return nil, fmt.Errorf("core: begin txn: %w", err)
	}
	t := &Txn{db: db, entry: entry, ctx: ctx, s: db.acquireScratch()}
	// Under the barrier: the entry is in the ATT, where a checkpoint
	// snapshot reads its undo log.
	entry.Undo = t.s.undo
	db.barrier.RUnlock()
	db.mTxnsBegun.Inc()
	return t, nil
}

// AdoptTxn wraps an ATT entry in a Txn for recovery-driven rollback.
func (db *DB) AdoptTxn(entry *wal.TxnEntry) *Txn {
	return &Txn{db: db, entry: entry, ctx: context.Background(), recoveryMode: true, s: db.acquireScratch()}
}

// AdoptPrepared wraps an in-doubt ATT entry (state TxnPrepared, left
// attached by recovery) in a Txn ready for CommitPrepared/AbortPrepared.
// Like all recovery adoption it skips lock acquisition — recovery is
// single-threaded per shard and the pre-crash locks died with the crash.
func (db *DB) AdoptPrepared(entry *wal.TxnEntry) (*Txn, error) {
	if entry.State != wal.TxnPrepared {
		return nil, fmt.Errorf("core: txn %d is %s, not prepared", entry.ID, entry.State)
	}
	t := db.AdoptTxn(entry)
	t.prepared = true
	return t, nil
}

// ID reports the transaction ID.
func (t *Txn) ID() wal.TxnID { return t.entry.ID }

// DB returns the database the transaction runs against.
func (t *Txn) DB() *DB { return t.db }

// Entry exposes the ATT entry (used by recovery and tests).
func (t *Txn) Entry() *wal.TxnEntry { return t.entry }

// Lock acquires a transaction-duration lock on an object key; locks are
// released at commit or abort (strict two-phase locking at transaction
// level). During recovery locks are skipped. The wait is bounded by the
// transaction's context (BeginCtx) as well as the lock-wait timeout.
func (t *Txn) Lock(key wal.ObjectKey, mode lockmgr.Mode) error {
	return t.LockCtx(t.ctx, key, mode)
}

// LockCtx is Lock with an explicit context overriding the transaction's
// own for this one wait: cancellation or deadline expiry while queued
// behind a conflicting holder fails the acquisition (the lock is not
// taken, the transaction remains usable and should normally be aborted).
func (t *Txn) LockCtx(ctx context.Context, key wal.ObjectKey, mode lockmgr.Mode) error {
	if t.done {
		return ErrTxnDone
	}
	if t.prepared {
		return ErrTxnPrepared
	}
	if t.recoveryMode {
		return nil
	}
	if err := t.db.locks.LockCtx(ctx, t.entry.ID, key, mode); err != nil {
		// The lockmgr sentinel stays reachable: errors.Is(err,
		// core.ErrLockTimeout) holds for a timed-out wait, and the
		// context's own error for a canceled one.
		return fmt.Errorf("core: txn %d: lock key %d (%s): %w", t.entry.ID, key, mode, err)
	}
	return nil
}

// BeginOp opens a lower-level operation on key at the given level. The
// operation's begin is logged — corruption recovery checks begin-operation
// records against the undo logs of corrupted transactions (§4.3).
func (t *Txn) BeginOp(level uint8, key wal.ObjectKey) error {
	if t.done {
		return ErrTxnDone
	}
	if t.prepared {
		return ErrTxnPrepared
	}
	t.db.barrier.RLock()
	defer t.db.barrier.RUnlock()
	if s := t.s; s.firstPhys < 0 || len(t.entry.Undo) <= s.firstPhys {
		// Every physical undo entry pointing into the operation slab has
		// been popped, and with it the operation whose images lived there.
		s.opBuf.reset()
		s.firstPhys = -1
	}
	t.opRedoMarks = append(t.opRedoMarks, len(t.entry.Redo))
	t.entry.PushOpBegin(level, key)
	*t.pushRedo() = wal.Record{Kind: wal.KindOpBegin, Txn: t.entry.ID, Level: level, Key: key}
	t.db.mOps.Inc()
	return nil
}

// pushRedo appends a record of the redo slab to the local redo log and
// returns it for the caller to fill. An empty redo log rewinds the slab:
// its records were encoded into the log tail (or discarded) already.
func (t *Txn) pushRedo() *wal.Record {
	if len(t.entry.Redo) == 0 {
		t.s.recs.reset()
	}
	r := &t.s.recs.alloc(1)[0]
	t.entry.Redo = append(t.entry.Redo, r)
	return r
}

// UndoArgs returns n bytes owned by the transaction that stay valid until
// it completes — the place to build a wal.LogicalUndo's Args, which the
// undo log keeps for exactly that long. The bytes are not zeroed.
func (t *Txn) UndoArgs(n int) []byte { return t.s.txnBuf.alloc(n) }

// CommitOp commits the current lower-level operation: the operation
// commit record (with its logical undo description) is appended to the
// local redo log, the local redo log is moved to the system log tail, and
// the operation's physical undo records are replaced by the logical undo
// — all before the caller releases the operation's locks, as required by
// multi-level recovery (§2.1).
func (t *Txn) CommitOp(level uint8, key wal.ObjectKey, undo wal.LogicalUndo) error {
	return t.commitOp(level, key, undo, false)
}

// CommitCompensationOp commits an operation executed by an undo handler
// to reverse an earlier committed operation. The compensated logical undo
// entry is popped from the undo log; the op-commit record is flagged so
// recovery reconstructs the same pop.
func (t *Txn) CommitCompensationOp(level uint8, key wal.ObjectKey) error {
	return t.commitOp(level, key, wal.LogicalUndo{}, true)
}

func (t *Txn) commitOp(level uint8, key wal.ObjectKey, undo wal.LogicalUndo, compensation bool) error {
	if t.done {
		return ErrTxnDone
	}
	if !t.entry.InOperation() {
		return fmt.Errorf("core: txn %d: CommitOp without BeginOp", t.entry.ID)
	}
	t.db.barrier.RLock()
	defer t.db.barrier.RUnlock()
	rec := t.pushRedo()
	*rec = wal.Record{
		Kind: wal.KindOpCommit, Txn: t.entry.ID, Level: level, Key: key,
		Undo: undo, Compensation: compensation,
	}
	if err := t.db.log.Append(t.entry.Redo...); err != nil {
		// Poisoned log: the records stayed local (nothing was appended), so
		// the operation remains open and the caller can still Abort — the
		// undo log is intact and rollback is purely in-memory.
		return fmt.Errorf("core: txn %d: commit op: %w", t.entry.ID, err)
	}
	// rec stays readable below: the slab rewinds only at the next pushRedo.
	t.entry.Redo = t.entry.Redo[:0]
	if n := len(t.opRedoMarks); n > 0 {
		t.opRedoMarks = t.opRedoMarks[:n-1]
	}
	if err := t.db.schemeOpEnd(); err != nil {
		return err
	}
	if compensation {
		return t.entry.CommitCompensationOp()
	}
	// OrderLSN: on multi-stream log sets the GSN, not the stream-local
	// LSN, totally orders operation commits across transactions — undo
	// ordering in recovery and rollback depends on it.
	return t.entry.CommitOp(level, key, undo, rec.OrderLSN())
}

// AbortOp rolls back the current (uncommitted) lower-level operation in
// place: its physical updates are undone and its pending redo records are
// discarded, leaving the transaction able to continue.
func (t *Txn) AbortOp() error {
	if t.done {
		return ErrTxnDone
	}
	if !t.entry.InOperation() {
		return fmt.Errorf("core: txn %d: AbortOp without BeginOp", t.entry.ID)
	}
	// First discard the aborted operation's pending redo records (its
	// begin record and physical records that never reached the system
	// log). This must happen before any nested compensation runs, because
	// a compensation's operation commit moves everything pending to the
	// system log and must not carry the aborted operation's records with
	// it. Records pending from before this operation's BeginOp are kept.
	if n := len(t.opRedoMarks); n > 0 {
		mark := t.opRedoMarks[n-1]
		t.opRedoMarks = t.opRedoMarks[:n-1]
		if mark < len(t.entry.Redo) {
			t.entry.Redo = t.entry.Redo[:mark]
		}
	} else {
		t.entry.Redo = t.entry.Redo[:0]
	}
	// Undo the operation's work down to (and including) its op-begin
	// marker: physical updates from their before-images, nested committed
	// operations by compensation.
	for len(t.entry.Undo) > 0 {
		before := len(t.entry.Undo)
		top := t.entry.Undo[before-1]
		switch top.Kind {
		case wal.UndoOpBegin:
			t.entry.Undo = t.entry.Undo[:before-1]
		case wal.UndoPhys:
			t.entry.Undo = t.entry.Undo[:before-1]
			if err := t.applyPhysUndo(top); err != nil {
				return err
			}
		case wal.UndoLogical:
			if err := t.execLogicalUndo(top); err != nil {
				return err
			}
			if len(t.entry.Undo) >= before {
				return fmt.Errorf("core: txn %d: logical undo did not shrink the undo log", t.entry.ID)
			}
		default:
			return fmt.Errorf("core: txn %d: unknown undo entry kind %d", t.entry.ID, top.Kind)
		}
		if top.Kind == wal.UndoOpBegin {
			break
		}
	}
	return t.db.schemeOpEnd()
}

// Read reads n bytes at addr through the prescribed interface: the active
// scheme prechecks and/or contributes a read-log record (identity and
// optional codeword, never the value — §4.2). The returned slice is a
// copy. A CorruptionError-wrapped precheck failure means the data is
// corrupt and was not returned.
func (t *Txn) Read(addr mem.Addr, n int) ([]byte, error) {
	if n < 0 {
		return nil, t.wrapReadErr(addr, n, t.db.arena.CheckRange(addr, n))
	}
	out := make([]byte, n)
	if _, err := t.ReadInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto is Read without allocation: it copies into dst and returns the
// number of bytes read. Used on benchmark hot paths.
func (t *Txn) ReadInto(addr mem.Addr, dst []byte) (int, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	if t.prepared {
		return 0, ErrTxnPrepared
	}
	if t.pendingUpdate {
		// Reading through the scheme while an update bracket is open
		// would re-acquire protection latches the bracket already holds
		// (self-deadlock under Read Prechecking).
		return 0, fmt.Errorf("core: txn %d: read inside an open update bracket", t.entry.ID)
	}
	info, err := t.db.scheme.Read(addr, len(dst))
	if err != nil {
		return 0, t.wrapReadErr(addr, len(dst), err)
	}
	t.db.mReads.Inc()
	if info.LogRead {
		*t.pushRedo() = wal.Record{
			Kind: wal.KindRead, Txn: t.entry.ID, Addr: addr, Len: len(dst),
			HasCW: info.HasCW, CW: info.CW,
		}
		t.db.mReadRec.Inc()
	}
	copy(dst, t.db.arena.Slice(addr, len(dst)))
	return len(dst), nil
}

// Commit durably commits the transaction: any remaining local records are
// moved to the system log, a commit record is appended, and the log is
// forced. Locks are then released and the ATT entry removed. The
// group-commit wait honors the transaction's context (BeginCtx): if it
// ends while the commit record is queued behind another force, Commit
// returns ErrCommitUnresolved — the record is in the tail and may still
// become durable, so the transaction is finished locally as committed
// but the caller must treat the durable outcome as unknown.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	if t.prepared {
		return ErrTxnPrepared
	}
	if t.entry.InOperation() {
		return fmt.Errorf("core: txn %d: commit with open operation", t.entry.ID)
	}
	if t.pendingUpdate {
		return fmt.Errorf("core: txn %d: commit with open update", t.entry.ID)
	}
	if err := t.ctx.Err(); err != nil {
		// The context already ended: fail before the commit record is
		// appended, leaving the transaction intact so the caller can
		// still Abort cleanly.
		return fmt.Errorf("core: txn %d: commit: %w", t.entry.ID, err)
	}
	t.db.barrier.RLock()
	*t.pushRedo() = wal.Record{Kind: wal.KindTxnCommit, Txn: t.entry.ID}
	err := t.db.log.AppendAndFlushCtx(t.ctx, t.entry.Redo...)
	t.entry.Redo = t.entry.Redo[:0]
	t.db.barrier.RUnlock()
	if err != nil {
		if errors.Is(err, wal.ErrFlushWaitCanceled) {
			// The commit record was appended but the context ended during
			// the group-commit wait. It may still be carried durable by a
			// later force, so the transaction must not be aborted: finish
			// it locally and surface the unresolved outcome.
			t.finish(wal.TxnCommitted)
			return fmt.Errorf("core: txn %d: %w: %w", t.entry.ID, ErrCommitUnresolved, err)
		}
		return fmt.Errorf("core: txn %d: commit flush: %w", t.entry.ID, err)
	}
	t.finish(wal.TxnCommitted)
	return nil
}

// Prepare enters the transaction into the prepared state of two-phase
// commit on behalf of global transaction gid: remaining local records
// plus a prepare record are moved to the system log and the log is
// forced. From then on the transaction accepts only CommitPrepared or
// AbortPrepared — it holds its locks and its undo log until the
// coordinator's decision arrives, surviving a crash in between (recovery
// re-attaches prepared transactions as in-doubt). On error the
// transaction is NOT prepared and remains abortable: even if the prepare
// record later proves durable, a follow-up abort record — or, after a
// crash, presumed abort — supersedes it.
func (t *Txn) Prepare(gid uint64) error {
	if t.done {
		return ErrTxnDone
	}
	if t.prepared {
		return ErrTxnPrepared
	}
	if t.entry.InOperation() {
		return fmt.Errorf("core: txn %d: prepare with open operation", t.entry.ID)
	}
	if t.pendingUpdate {
		return fmt.Errorf("core: txn %d: prepare with open update", t.entry.ID)
	}
	if gid == 0 {
		return fmt.Errorf("core: txn %d: prepare requires a nonzero global transaction ID", t.entry.ID)
	}
	t.db.barrier.RLock()
	*t.pushRedo() = wal.Record{Kind: wal.KindTxnPrepare, Txn: t.entry.ID, GID: gid}
	err := t.db.log.AppendAndFlushCtx(t.ctx, t.entry.Redo...)
	t.entry.Redo = t.entry.Redo[:0]
	t.db.barrier.RUnlock()
	if err != nil {
		return fmt.Errorf("core: txn %d: prepare: %w", t.entry.ID, err)
	}
	t.prepared = true
	t.entry.State = wal.TxnPrepared
	t.entry.GID = gid
	return nil
}

// CommitPrepared applies a coordinator commit decision to a prepared
// transaction: the commit record is appended and the log forced, then
// locks are released and the ATT entry removed. The decision is already
// durable at the coordinator, so this deliberately ignores the
// transaction's context — a decided transaction must complete.
func (t *Txn) CommitPrepared() error {
	if t.done {
		return ErrTxnDone
	}
	if !t.prepared {
		return fmt.Errorf("core: txn %d: CommitPrepared on unprepared transaction", t.entry.ID)
	}
	t.db.barrier.RLock()
	err := t.db.log.AppendAndFlush(&wal.Record{Kind: wal.KindTxnCommit, Txn: t.entry.ID})
	t.db.barrier.RUnlock()
	if err != nil {
		// Poisoned log: the commit record may not be durable, but the
		// prepare record is, and the coordinator's decision survives — the
		// next recovery resolves the transaction as committed. Do not
		// release anything here; fail-stop is in progress.
		return fmt.Errorf("core: txn %d: commit prepared: %w", t.entry.ID, err)
	}
	t.prepared = false
	t.finish(wal.TxnCommitted)
	return nil
}

// AbortPrepared applies a coordinator abort decision (or presumed abort)
// to a prepared transaction: its committed operations are compensated
// newest-first from the undo log exactly as in Abort.
func (t *Txn) AbortPrepared() error {
	if t.done {
		return ErrTxnDone
	}
	if !t.prepared {
		return fmt.Errorf("core: txn %d: AbortPrepared on unprepared transaction", t.entry.ID)
	}
	t.prepared = false
	t.entry.State = wal.TxnActive
	if err := t.Rollback(); err != nil {
		return err
	}
	t.db.barrier.RLock()
	appendErr := t.db.log.Append(&wal.Record{Kind: wal.KindTxnAbort, Txn: t.entry.ID})
	t.db.barrier.RUnlock()
	t.finish(wal.TxnAborted)
	return appendErr
}

// Prepared reports whether the transaction is in the 2PC prepared state.
func (t *Txn) Prepared() bool { return t.prepared }

// AppendDecision durably records the coordinator's commit/abort decision
// for global transaction gid in this database's log. Writing it is the
// commit point of a cross-shard transaction: once durable, every prepared
// participant must eventually apply it; if a crash intervenes before it
// is written, presumed abort rolls every participant back.
func (db *DB) AppendDecision(gid uint64, commit bool) error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.barrier.RLock()
	defer db.barrier.RUnlock()
	if err := db.log.AppendAndFlush(&wal.Record{Kind: wal.KindTxnDecision, GID: gid, Decision: commit}); err != nil {
		return fmt.Errorf("core: decision for gid %d: %w", gid, err)
	}
	return nil
}

// wrapReadErr contextualizes a scheme read failure. A precheck mismatch is
// corruption: the wrapped chain matches both errors.Is(err, ErrCorruption)
// and errors.Is(err, protect.ErrPrecheckFailed).
func (t *Txn) wrapReadErr(addr mem.Addr, n int, err error) error {
	if errors.Is(err, protect.ErrPrecheckFailed) {
		return fmt.Errorf("core: txn %d: read [%d,+%d): %w: %w", t.entry.ID, addr, n, ErrCorruption, err)
	}
	return fmt.Errorf("core: txn %d: read [%d,+%d): %w", t.entry.ID, addr, n, err)
}

// Abort rolls the transaction back: physical updates of the open
// operation are undone from their before-images, committed operations are
// logically undone by compensating operations (newest first), and an
// abort record is appended. The paper's codeword-applied flag (§3.1)
// decides whether each physical restore refolds the codeword.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	if t.prepared {
		// A prepared transaction's fate belongs to its coordinator; use
		// AbortPrepared to apply an abort decision explicitly.
		return ErrTxnPrepared
	}
	if t.pendingUpdate {
		return fmt.Errorf("core: txn %d: abort with open update bracket", t.entry.ID)
	}
	if err := t.Rollback(); err != nil {
		return err
	}
	t.db.barrier.RLock()
	// A poisoned log cannot take the abort record, but the rollback above
	// already restored the in-memory state and nothing of this transaction
	// can be durable beyond the stable prefix — restart recovery rolls it
	// back again from the log. Finish locally either way.
	appendErr := t.db.log.Append(&wal.Record{Kind: wal.KindTxnAbort, Txn: t.entry.ID})
	t.db.barrier.RUnlock()
	t.finish(wal.TxnAborted)
	return appendErr
}

// Rollback undoes all of the transaction's work without completing the
// transaction (recovery calls this for every incomplete transaction and
// then finalizes separately).
func (t *Txn) Rollback() error {
	// Pending redo records belong to an uncommitted operation (or are
	// reads); they never reached the system log and are discarded.
	t.entry.Redo = t.entry.Redo[:0]
	t.opRedoMarks = t.opRedoMarks[:0]
	for len(t.entry.Undo) > 0 {
		before := len(t.entry.Undo)
		top := t.entry.Undo[before-1]
		switch top.Kind {
		case wal.UndoPhys:
			t.entry.Undo = t.entry.Undo[:before-1]
			if err := t.applyPhysUndo(top); err != nil {
				return err
			}
		case wal.UndoOpBegin:
			// The operation never committed; its physical undos (above
			// the marker) have already been applied.
			t.entry.Undo = t.entry.Undo[:before-1]
		case wal.UndoLogical:
			if err := t.execLogicalUndo(top); err != nil {
				return err
			}
			if len(t.entry.Undo) >= before {
				return fmt.Errorf("core: txn %d: logical undo of op %d did not shrink the undo log",
					t.entry.ID, top.Logical.Op)
			}
		default:
			return fmt.Errorf("core: txn %d: unknown undo entry kind %d", t.entry.ID, top.Kind)
		}
	}
	return nil
}

// ExecLogicalUndoTop executes the logical undo at the top of the undo
// log; recovery's undo phase uses this to interleave logical undos across
// transactions in reverse CommitLSN order.
func (t *Txn) ExecLogicalUndoTop() error {
	n := len(t.entry.Undo)
	if n == 0 || t.entry.Undo[n-1].Kind != wal.UndoLogical {
		return fmt.Errorf("core: txn %d: top of undo log is not a logical undo", t.entry.ID)
	}
	if err := t.execLogicalUndo(t.entry.Undo[n-1]); err != nil {
		return err
	}
	if len(t.entry.Undo) >= n {
		return fmt.Errorf("core: txn %d: logical undo did not shrink the undo log", t.entry.ID)
	}
	return nil
}

func (t *Txn) execLogicalUndo(u wal.UndoRec) error {
	h, err := undoHandler(u.Logical.Op)
	if err != nil {
		return err
	}
	return h(t, u.Logical)
}

// UndoOpenOp rolls back any open (uncommitted) operation's physical
// updates; recovery's undo phase runs this for every incomplete
// transaction before logical undos start (level-by-level rollback).
func (t *Txn) UndoOpenOp() error {
	for len(t.entry.Undo) > 0 {
		top := t.entry.Undo[len(t.entry.Undo)-1]
		if top.Kind == wal.UndoLogical {
			return nil // only committed operations remain
		}
		t.entry.Undo = t.entry.Undo[:len(t.entry.Undo)-1]
		if top.Kind == wal.UndoPhys {
			if err := t.applyPhysUndo(top); err != nil {
				return err
			}
		}
	}
	return nil
}

// FinishAborted appends the abort record and releases the transaction
// after an externally driven rollback (recovery).
func (t *Txn) FinishAborted() {
	t.db.barrier.RLock()
	// Ignore a poisoned-log failure: recovery-driven rollback is already
	// reconstructing state from the stable log, and the missing abort
	// record only means the next restart repeats the (idempotent) rollback.
	//dbvet:allow errflow recovery rollback tolerates a poisoned log; the abort record is redundant with the idempotent replay
	_ = t.db.log.Append(&wal.Record{Kind: wal.KindTxnAbort, Txn: t.entry.ID})
	t.db.barrier.RUnlock()
	t.finish(wal.TxnAborted)
}

func (t *Txn) finish(state wal.TxnState) {
	// Any deferred page exposures end with the transaction.
	t.db.schemeOpEnd()
	if state == wal.TxnCommitted {
		t.db.mTxnsCommitted.Inc()
	} else {
		t.db.mTxnsAborted.Inc()
	}
	t.entry.State = state
	t.db.att.Remove(t.entry.ID)
	if !t.recoveryMode {
		t.db.locks.ReleaseAll(t.entry.ID)
	}
	t.done = true
	t.releaseScratch()
}

// applyPhysUndo restores a physical before-image through the protection
// scheme. If the codeword was never applied for the update (the paper's
// codeword-applied flag is still set), the bytes are restored without
// touching the codeword, which still describes the before-image;
// otherwise the restore folds the codeword like any other update.
func (t *Txn) applyPhysUndo(u wal.UndoRec) error {
	t.db.barrier.RLock()
	defer t.db.barrier.RUnlock()
	n := len(u.Before)
	tok, err := t.db.scheme.BeginUpdate(u.Addr, n)
	if err != nil {
		return err
	}
	// Allocating never rewinds the slab, so u.Before (possibly in the same
	// slab, already popped from the stack) stays intact.
	cur := t.s.opBuf.alloc(n)
	copy(cur, t.db.arena.Slice(u.Addr, n))
	//dbvet:allow guardedwrite rollback restores the undo image; AbortUpdate squares the codeword
	copy(t.db.arena.Slice(u.Addr, n), u.Before)
	if u.CodewordPending {
		return t.db.scheme.AbortUpdate(tok)
	}
	return t.db.scheme.EndUpdate(tok, cur, u.Before)
}
