package heap

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/lockmgr"
	"repro/internal/mem"
	"repro/internal/wal"
)

// Insert stores data (exactly RecSize bytes) in a free slot and returns
// its RID. The insert is a level-1 operation: bitmap and record updates
// are physical updates through the prescribed interface, and the logical
// undo is a delete of the new record.
func (t *Table) Insert(txn *core.Txn, data []byte) (RID, error) {
	if len(data) != t.RecSize {
		return RID{}, fmt.Errorf("%w: got %d bytes, table %q holds %d",
			ErrBadRecordSize, len(data), t.Name, t.RecSize)
	}
	// Free-slot search is serialized per table; the allocation mutex is
	// held until the bitmap bit is durably set in the in-memory image so
	// a concurrent insert cannot choose the same slot.
	t.allocMu.Lock()
	defer t.allocMu.Unlock()
	slot, ok := t.findFreeLocked()
	if !ok {
		return RID{}, fmt.Errorf("%w: %s (%d records)", ErrTableFull, t.Name, t.Cap)
	}
	rid := RID{Table: t.ID, Slot: slot}
	if err := txn.Lock(rid.Key(), lockmgr.Exclusive); err != nil {
		return RID{}, err
	}
	if err := txn.BeginOp(OpLevel, rid.Key()); err != nil {
		return RID{}, err
	}
	if err := t.setBit(txn, slot, true); err != nil {
		txn.AbortOp()
		return RID{}, err
	}
	if err := t.writeRecord(txn, slot, 0, data); err != nil {
		txn.AbortOp()
		return RID{}, err
	}
	if err := txn.CommitOp(OpLevel, rid.Key(), wal.LogicalUndo{
		Op: UndoOpDelete, Key: rid.Key(),
	}); err != nil {
		return RID{}, err
	}
	t.nextFree = slot + 1
	return rid, nil
}

// InsertAt stores data in a specific free slot (used by logical undo of
// delete, and by loaders that want deterministic RIDs).
func (t *Table) InsertAt(txn *core.Txn, rid RID, data []byte) error {
	if len(data) != t.RecSize {
		return fmt.Errorf("%w: got %d bytes, table %q holds %d",
			ErrBadRecordSize, len(data), t.Name, t.RecSize)
	}
	if rid.Table != t.ID || rid.Slot >= uint32(t.Cap) {
		return fmt.Errorf("heap: rid %v not in table %q", rid, t.Name)
	}
	if err := txn.Lock(rid.Key(), lockmgr.Exclusive); err != nil {
		return err
	}
	if t.Allocated(rid.Slot) {
		return fmt.Errorf("%w: %v", ErrSlotOccupied, rid)
	}
	if err := txn.BeginOp(OpLevel, rid.Key()); err != nil {
		return err
	}
	if err := t.setBit(txn, rid.Slot, true); err != nil {
		txn.AbortOp()
		return err
	}
	if err := t.writeRecord(txn, rid.Slot, 0, data); err != nil {
		txn.AbortOp()
		return err
	}
	return txn.CommitOp(OpLevel, rid.Key(), wal.LogicalUndo{
		Op: UndoOpDelete, Key: rid.Key(),
	})
}

// Update overwrites n bytes of the record at offset off. The logical undo
// restores the previous bytes.
func (t *Table) Update(txn *core.Txn, rid RID, off int, data []byte) error {
	if err := t.checkRange(rid, off, len(data)); err != nil {
		return err
	}
	if err := txn.Lock(rid.Key(), lockmgr.Exclusive); err != nil {
		return err
	}
	if !t.Allocated(rid.Slot) {
		return fmt.Errorf("%w: %v", ErrSlotFree, rid)
	}
	if err := txn.BeginOp(OpLevel, rid.Key()); err != nil {
		return err
	}
	addr := t.RecordAddr(rid.Slot) + mem.Addr(off)
	u, err := txn.BeginUpdate(addr, len(data))
	if err != nil {
		txn.AbortOp()
		return err
	}
	args := encodeUpdateUndo(txn, off, u.Bytes())
	copy(u.Bytes(), data)
	if err := u.End(); err != nil {
		txn.AbortOp()
		return err
	}
	return txn.CommitOp(OpLevel, rid.Key(), wal.LogicalUndo{
		Op: UndoOpUpdate, Key: rid.Key(), Args: args,
	})
}

// Delete removes the record; the logical undo re-inserts its old
// contents at the same slot.
func (t *Table) Delete(txn *core.Txn, rid RID) error {
	if rid.Table != t.ID || rid.Slot >= uint32(t.Cap) {
		return fmt.Errorf("heap: rid %v not in table %q", rid, t.Name)
	}
	if err := txn.Lock(rid.Key(), lockmgr.Exclusive); err != nil {
		return err
	}
	if !t.Allocated(rid.Slot) {
		return fmt.Errorf("%w: %v", ErrSlotFree, rid)
	}
	old := txn.UndoArgs(t.RecSize)
	copy(old, t.cat.db.Internals().Arena.Slice(t.RecordAddr(rid.Slot), t.RecSize))
	if err := txn.BeginOp(OpLevel, rid.Key()); err != nil {
		return err
	}
	if err := t.setBit(txn, rid.Slot, false); err != nil {
		txn.AbortOp()
		return err
	}
	if err := txn.CommitOp(OpLevel, rid.Key(), wal.LogicalUndo{
		Op: UndoOpInsert, Key: rid.Key(), Args: old,
	}); err != nil {
		return err
	}
	t.allocMu.Lock()
	if rid.Slot < t.nextFree {
		t.nextFree = rid.Slot
	}
	t.allocMu.Unlock()
	return nil
}

// Read returns a copy of the whole record, taking a shared
// transaction-duration lock and reading through the prescribed interface
// (read prechecking and read logging apply here).
func (t *Table) Read(txn *core.Txn, rid RID) ([]byte, error) {
	return t.ReadAt(txn, rid, 0, t.RecSize)
}

// ReadAt returns a copy of n bytes of the record starting at off.
func (t *Table) ReadAt(txn *core.Txn, rid RID, off, n int) ([]byte, error) {
	if err := t.checkRange(rid, off, n); err != nil {
		return nil, err
	}
	if err := txn.Lock(rid.Key(), lockmgr.Shared); err != nil {
		return nil, err
	}
	if !t.Allocated(rid.Slot) {
		return nil, fmt.Errorf("%w: %v", ErrSlotFree, rid)
	}
	return txn.Read(t.RecordAddr(rid.Slot)+mem.Addr(off), n)
}

// Scan invokes fn for every allocated record (by direct image access; a
// consistent scan under locking is the caller's business). It stops early
// if fn returns false.
func (t *Table) Scan(fn func(rid RID, rec []byte) bool) {
	arena := t.cat.db.Internals().Arena
	for s := uint32(0); s < uint32(t.Cap); s++ {
		if !t.Allocated(s) {
			continue
		}
		rec := arena.Slice(t.RecordAddr(s), t.RecSize)
		if !fn(RID{Table: t.ID, Slot: s}, rec) {
			return
		}
	}
}

func (t *Table) checkRange(rid RID, off, n int) error {
	if rid.Table != t.ID || rid.Slot >= uint32(t.Cap) {
		return fmt.Errorf("heap: rid %v not in table %q", rid, t.Name)
	}
	if off < 0 || n < 0 || off+n > t.RecSize {
		return fmt.Errorf("heap: range [%d,+%d) outside %d-byte record", off, n, t.RecSize)
	}
	return nil
}

// findFreeLocked scans the allocation bitmap next-fit from the hint.
func (t *Table) findFreeLocked() (uint32, bool) {
	cap32 := uint32(t.Cap)
	for i := uint32(0); i < cap32; i++ {
		s := (t.nextFree + i) % cap32
		if !t.Allocated(s) {
			return s, true
		}
	}
	return 0, false
}

// setBit updates one allocation-bitmap bit through the prescribed
// interface (this is the off-page "allocation information" update that
// contributes extra page touches under hardware protection, §5.3). The
// whole read-modify-write bracket runs under bitmapMu because the byte is
// shared by eight slots; see the field's comment.
func (t *Table) setBit(txn *core.Txn, slot uint32, on bool) error {
	addr, bit := t.bitAddr(slot)
	t.bitmapMu.Lock()
	defer t.bitmapMu.Unlock()
	u, err := txn.BeginUpdate(addr, 1)
	if err != nil {
		return err
	}
	if on {
		u.Bytes()[0] |= 1 << bit
	} else {
		u.Bytes()[0] &^= 1 << bit
	}
	return u.End()
}

// writeRecord updates record bytes through the prescribed interface.
func (t *Table) writeRecord(txn *core.Txn, slot uint32, off int, data []byte) error {
	u, err := txn.BeginUpdate(t.RecordAddr(slot)+mem.Addr(off), len(data))
	if err != nil {
		return err
	}
	copy(u.Bytes(), data)
	return u.End()
}

// encodeUpdateUndo builds the logical-undo arguments of an update — the
// offset and the bytes it overwrote — in memory the transaction keeps for
// as long as its undo log.
func encodeUpdateUndo(txn *core.Txn, off int, old []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(off))
	b := txn.UndoArgs(n + len(old))
	copy(b, hdr[:n])
	copy(b[n:], old)
	return b
}

func decodeUpdateUndo(args []byte) (int, []byte, error) {
	off, n := binary.Uvarint(args)
	if n <= 0 {
		return 0, nil, fmt.Errorf("heap: corrupt update undo args")
	}
	return int(off), args[n:], nil
}

// --- logical undo handlers ---------------------------------------------------

func init() {
	core.RegisterUndoOp(UndoOpDelete, undoDelete)
	core.RegisterUndoOp(UndoOpInsert, undoInsert)
	core.RegisterUndoOp(UndoOpUpdate, undoUpdate)
}

// tableFor resolves the table for an undo key via the catalog attachment.
func tableFor(txn *core.Txn, key wal.ObjectKey) (*Table, RID, error) {
	rid := RIDFromKey(key)
	cat, err := Open(txnDB(txn))
	if err != nil {
		return nil, rid, err
	}
	t, err := cat.TableByID(rid.Table)
	return t, rid, err
}

// txnDB extracts the DB from a Txn; core deliberately does not expose it
// as a method to keep Txn small, so heap fetches it through the catalog
// attachment contract.
func txnDB(txn *core.Txn) *core.DB { return txn.DB() }

// undoDelete logically undoes an insert: the record is deleted by a
// compensation operation.
func undoDelete(txn *core.Txn, u wal.LogicalUndo) error {
	t, rid, err := tableFor(txn, u.Key)
	if err != nil {
		return err
	}
	if err := txn.BeginOp(OpLevel, rid.Key()); err != nil {
		return err
	}
	if t.Allocated(rid.Slot) {
		if err := t.setBit(txn, rid.Slot, false); err != nil {
			return err
		}
	}
	if err := txn.CommitCompensationOp(OpLevel, rid.Key()); err != nil {
		return err
	}
	t.allocMu.Lock()
	if rid.Slot < t.nextFree {
		t.nextFree = rid.Slot
	}
	t.allocMu.Unlock()
	return nil
}

// undoInsert logically undoes a delete: the old record bytes (carried in
// Args) are re-inserted at the same slot.
func undoInsert(txn *core.Txn, u wal.LogicalUndo) error {
	t, rid, err := tableFor(txn, u.Key)
	if err != nil {
		return err
	}
	if len(u.Args) != t.RecSize {
		return fmt.Errorf("heap: undo-insert args %d bytes, record is %d", len(u.Args), t.RecSize)
	}
	if err := txn.BeginOp(OpLevel, rid.Key()); err != nil {
		return err
	}
	if !t.Allocated(rid.Slot) {
		if err := t.setBit(txn, rid.Slot, true); err != nil {
			return err
		}
	}
	if err := t.writeRecord(txn, rid.Slot, 0, u.Args); err != nil {
		return err
	}
	return txn.CommitCompensationOp(OpLevel, rid.Key())
}

// undoUpdate logically undoes an update: the old bytes are restored.
func undoUpdate(txn *core.Txn, u wal.LogicalUndo) error {
	t, rid, err := tableFor(txn, u.Key)
	if err != nil {
		return err
	}
	off, old, err := decodeUpdateUndo(u.Args)
	if err != nil {
		return err
	}
	if err := txn.BeginOp(OpLevel, rid.Key()); err != nil {
		return err
	}
	if err := t.writeRecord(txn, rid.Slot, off, old); err != nil {
		return err
	}
	return txn.CommitCompensationOp(OpLevel, rid.Key())
}
