package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/protect"
	"repro/internal/wal"
)

// Update is an open update bracket — the prescribed interface of the
// paper's update model. BeginUpdate captures the undo image and prepares
// the region (protection latches for codeword schemes, page exposure for
// hardware protection); the caller then writes [addr, addr+n) in place
// through Bytes or Write; End performs codeword maintenance and generates
// the physical redo record. Exactly one of End or Cancel must be called.
//
// The paper's codeword-applied flag lifecycle (§3.1) is realized here:
// BeginUpdate pushes the physical undo record with the flag pending, End
// clears it after folding the codeword, and Cancel restores the
// before-image leaving the codeword untouched.
//
// The bracket lives inside its Txn (brackets cannot overlap), and its
// before- and after-images live in the transaction's operation slab: the
// undo entry and the redo record point at slab bytes that stay put until
// the enclosing operation has committed or aborted.
type Update struct {
	t       *Txn
	addr    mem.Addr
	n       int
	before  []byte
	tok     protect.UpdateToken
	undoIdx int
	done    bool
}

// BeginUpdate opens an update bracket on [addr, addr+n). While a bracket
// is open the transaction must not issue other operations (reads through
// the interface, operation boundaries); it should only write the exposed
// bytes and then End or Cancel.
//
// The returned handle is the transaction's one bracket, reused by its next
// BeginUpdate: it is dead once End or Cancel has returned, and a caller
// that kept it would be addressing whichever bracket is open by then.
func (t *Txn) BeginUpdate(addr mem.Addr, n int) (*Update, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if t.pendingUpdate {
		return nil, fmt.Errorf("core: txn %d: nested update bracket", t.entry.ID)
	}
	if !t.entry.InOperation() {
		return nil, fmt.Errorf("core: txn %d: update outside an operation", t.entry.ID)
	}
	db := t.db
	// The audit barrier is held across the whole bracket so an audit
	// cannot observe the half-updated region; End/Cancel release it.
	//dbvet:allow latchorder update bracket spans functions; End/Cancel defer the RUnlock
	db.barrier.RLock()
	if err := db.arena.CheckRange(addr, n); err != nil {
		db.barrier.RUnlock()
		return nil, err
	}
	tok, err := db.scheme.BeginUpdate(addr, n)
	if err != nil {
		db.barrier.RUnlock()
		return nil, err
	}
	before := t.s.opBuf.alloc(n)
	copy(before, db.arena.Slice(addr, n))
	t.entry.PushPhysUndo(addr, before)
	undoIdx := len(t.entry.Undo) - 1
	if t.s.firstPhys < 0 || undoIdx < t.s.firstPhys {
		// A true minimum: the stack may have shrunk (an aborted or committed
		// nested operation) since the entry that set firstPhys was pushed.
		t.s.firstPhys = undoIdx
	}
	t.pendingUpdate = true
	db.mUpdates.Inc()
	t.upd = Update{t: t, addr: addr, n: n, before: before, tok: tok, undoIdx: undoIdx}
	//dbvet:allow cwpair bracket folds in Update.End via scheme.EndUpdate, not at Begin
	return &t.upd, nil
}

// Bytes exposes the writable window [addr, addr+n) of the database image
// for in-place modification.
func (u *Update) Bytes() []byte {
	return u.t.db.arena.Slice(u.addr, u.n)
}

// Write copies data into the window at the given offset.
func (u *Update) Write(off int, data []byte) {
	copy(u.Bytes()[off:], data)
}

// End completes the update: the codeword change is folded in (or the
// pages reprotected), the codeword-applied flag is cleared, and the
// physical redo record — carrying the pre-update region codeword when the
// CW Read Logging scheme is active — is appended to the transaction's
// local redo log.
func (u *Update) End() error {
	if u.done {
		return fmt.Errorf("core: update bracket already closed")
	}
	u.done = true
	t := u.t
	db := t.db
	defer db.barrier.RUnlock()
	t.pendingUpdate = false

	after := t.s.opBuf.alloc(u.n)
	copy(after, db.arena.Slice(u.addr, u.n))

	// Pre-update codeword for "write treated as read followed by write"
	// must be computed while the update's latches are still held.
	cw, hasCW := db.scheme.PreWriteCW(u.addr, u.before, after)

	if err := db.scheme.EndUpdate(u.tok, u.before, after); err != nil {
		return err
	}
	t.entry.Undo[u.undoIdx].CodewordPending = false
	*t.pushRedo() = wal.Record{
		Kind: wal.KindPhysRedo, Txn: t.entry.ID,
		Addr: u.addr, Data: after, HasCW: hasCW, CW: cw,
	}
	return nil
}

// Cancel abandons the update: the before-image is restored, the codeword
// is left untouched (it still describes the before-image), and the undo
// record is popped — the update never happened.
func (u *Update) Cancel() error {
	if u.done {
		return fmt.Errorf("core: update bracket already closed")
	}
	u.done = true
	t := u.t
	db := t.db
	defer db.barrier.RUnlock()
	t.pendingUpdate = false

	//dbvet:allow guardedwrite Cancel restores the before image the codeword still covers
	copy(db.arena.Slice(u.addr, u.n), u.before)
	if err := db.scheme.AbortUpdate(u.tok); err != nil {
		return err
	}
	if u.undoIdx != len(t.entry.Undo)-1 || t.entry.Undo[u.undoIdx].Kind != wal.UndoPhys {
		return fmt.Errorf("core: txn %d: undo log shifted under open update", t.entry.ID)
	}
	t.entry.Undo = t.entry.Undo[:u.undoIdx]
	return nil
}
