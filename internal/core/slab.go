package core

import (
	"unsafe"

	"repro/internal/wal"
)

// slab hands out runs of T from fixed chunks it keeps across resets. A
// chunk is never moved or resized once made, so a pointer or slice into
// the slab stays valid until the next reset, however much is allocated
// after it; reset only rewinds, and the next fill reuses the same chunks.
type slab[T any] struct {
	chunks   [][]T
	cur, off int // next free element is chunks[cur][off]
	bytes    int // total size of the chunks
}

const slabChunkBytes = 8 << 10 // a larger request gets a chunk of its own

// alloc returns n contiguous elements, uninitialized: after a reset they
// hold whatever the previous cycle left, so the caller writes all of them.
func (s *slab[T]) alloc(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.off = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			s.off += n
			return c[s.off-n : s.off : s.off]
		}
	}
	size := int(unsafe.Sizeof(*new(T)))
	c := make([]T, max(n, slabChunkBytes/size))
	s.chunks, s.bytes, s.off = append(s.chunks, c), s.bytes+len(c)*size, n
	return c[:n:n]
}

// reset makes every element available again; nothing handed out before it
// may be used after it.
func (s *slab[T]) reset() { s.cur, s.off = 0, 0 }

// txnScratch is the memory the transaction path writes instead of the
// general heap. The transaction's goroutine owns all of it from Begin to
// finish, when it goes back to the database's pool. See DESIGN.md,
// "Allocation discipline on the transaction path".
type txnScratch struct {
	// recs backs entry.Redo, which holds pointers to these values. Dead
	// once Redo has been moved to the system log (or discarded): pushRedo
	// rewinds it whenever Redo is empty.
	recs slab[wal.Record]
	// opBuf holds operation-lifetime bytes: the before-image behind each
	// physical undo entry, the after-image behind each pending physical
	// redo record. Dead once the outermost open operation commits or
	// aborts. firstPhys is the lowest undo-stack index that may hold an
	// entry pointing into opBuf (-1: none); BeginOp rewinds the slab when
	// the stack is no taller than that.
	opBuf     slab[byte]
	firstPhys int
	// txnBuf holds logical-undo arguments, which the undo log keeps until
	// the transaction completes.
	txnBuf slab[byte]
	// undo is the previous owner's emptied entry.Undo: 2,500 entries by the
	// end of a 500-operation TPC-B transaction, ~900 KB of doublings and
	// copies if every transaction grew its own (-10% ops_per_s on tpcb_base).
	undo []wal.UndoRec
}

// maxRetained bounds the scratch a finished transaction hands to the
// next: one a bulk load grew past it goes to the garbage collector rather
// than pin its high-water mark. A constant, like wal.maxRetainedTail: it
// only has to exceed the steady-state transaction (500 TPC-B operations
// carry ~600 KB, most of it the undo stack).
const maxRetained = 1 << 20

// acquireScratch takes a scratch from the database's pool.
func (db *DB) acquireScratch() *txnScratch {
	if s, ok := db.scratch.Get().(*txnScratch); ok {
		return s
	}
	return &txnScratch{firstPhys: -1}
}

// releaseScratch returns the scratch to the pool once the transaction is
// out of the ATT: nothing can reach its undo log any more (a checkpoint
// snapshot copies entries under the ATT mutex, which Remove has since
// taken), so the slabs may serve the next transaction.
func (t *Txn) releaseScratch() {
	s := t.s
	t.s = nil
	s.undo, t.entry.Redo, t.entry.Undo = t.entry.Undo[:0], nil, nil
	if s.recs.bytes+s.opBuf.bytes+s.txnBuf.bytes+cap(s.undo)*int(unsafe.Sizeof(wal.UndoRec{})) > maxRetained {
		return
	}
	s.recs.reset()
	s.opBuf.reset()
	s.txnBuf.reset()
	s.firstPhys = -1
	t.db.scratch.Put(s)
}
