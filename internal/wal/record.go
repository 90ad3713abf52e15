// Package wal implements the logging subsystem of the reproduced Dalí
// storage manager: physical redo records, operation commit records
// carrying logical undo descriptions, transaction control records, the
// paper's read-log records (with optional codewords), per-transaction
// local undo and redo logs held in the active transaction table (ATT),
// and the system log with its in-memory tail and stable on-disk portion.
//
// Logging is "local" in the Dalí sense (paper §2): physical undo and redo
// records accumulate in the transaction's ATT entry, and when a
// lower-level operation commits, its redo records are moved to the system
// log tail and its physical undo records are replaced by a single logical
// undo record. Physical undo information reaches disk only inside
// checkpointed copies of the ATT, never through the log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/region"
)

// LSN is a log sequence number: the byte offset of a record in the system
// log (stable portion plus in-memory tail).
type LSN uint64

// TxnID identifies a transaction.
type TxnID uint64

// ObjectKey identifies the logical object an operation manipulates (for
// the heap layer: table and slot). It is the unit at which operation
// conflicts are decided, both by the lock manager during normal operation
// and by the delete-transaction recovery algorithm when it checks a begin
// operation record against the undo logs of corrupted transactions.
type ObjectKey uint64

// Kind discriminates log record types.
type Kind uint8

// Log record kinds.
const (
	// KindPhysRedo is a physical after-image: addr, data. May carry the
	// region codeword observed by the writer when the CW Read Logging
	// scheme is active ("a codeword stored in a write log record indicates
	// it should be treated as a read followed by a write", paper §4.3).
	KindPhysRedo Kind = iota + 1
	// KindOpBegin marks the start of a lower-level operation on an object.
	KindOpBegin
	// KindOpCommit commits a lower-level operation and carries its logical
	// undo description.
	KindOpCommit
	// KindTxnBegin marks the start of a transaction.
	KindTxnBegin
	// KindTxnCommit commits a transaction.
	KindTxnCommit
	// KindTxnAbort records that a transaction's rollback completed.
	KindTxnAbort
	// KindRead is the paper's read-log record: the identity of data read
	// (start address and byte count) and optionally the codeword of the
	// enclosing region(s), but never the value itself.
	KindRead
	// KindAuditBegin marks the log position at which a database audit
	// began; its serial number becomes Audit_SN if the audit comes back
	// clean.
	KindAuditBegin
	// KindAuditEnd records the audit outcome (clean or the corrupt ranges).
	KindAuditEnd
	// KindTxnPrepare records that a transaction participating in a
	// cross-shard two-phase commit has entered the prepared state: all its
	// operations are committed at their level, its redo is in the system
	// log up to and including this record, and its fate now rests with the
	// coordinator's decision record (identified by the global transaction
	// ID carried in GID). Recovery keeps prepared transactions attached —
	// neither undone nor released — until the decision is known.
	KindTxnPrepare
	// KindTxnDecision is the coordinator's commit/abort decision for a
	// cross-shard transaction, written to the coordinator shard's log. GID
	// identifies the global transaction; Decision is true for commit.
	// Under presumed abort, a missing decision record means abort.
	KindTxnDecision
)

var kindNames = map[Kind]string{
	KindPhysRedo:    "phys-redo",
	KindOpBegin:     "op-begin",
	KindOpCommit:    "op-commit",
	KindTxnBegin:    "txn-begin",
	KindTxnCommit:   "txn-commit",
	KindTxnAbort:    "txn-abort",
	KindRead:        "read",
	KindAuditBegin:  "audit-begin",
	KindAuditEnd:    "audit-end",
	KindTxnPrepare:  "txn-prepare",
	KindTxnDecision: "txn-decision",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// LogicalUndo describes how to logically undo a committed lower-level
// operation. Op is an opcode registered by the storage layer (see package
// heap); Key is the object the undo applies to; Args is opcode-specific.
type LogicalUndo struct {
	Op   uint8
	Key  ObjectKey
	Args []byte
}

// Record is a system log record. A single struct with a kind
// discriminator keeps encoding and the recovery scan simple; unused
// fields are zero.
type Record struct {
	LSN  LSN // assigned when the record enters the system log tail
	Kind Kind
	Txn  TxnID

	// Physical fields (KindPhysRedo, KindRead).
	Addr mem.Addr
	Len  int    // byte count for KindRead
	Data []byte // after-image for KindPhysRedo

	// Optional codeword (KindRead, KindPhysRedo under CW Read Logging).
	HasCW bool
	CW    region.Codeword

	// Operation fields (KindOpBegin, KindOpCommit).
	Level uint8
	Key   ObjectKey
	Undo  LogicalUndo // valid for KindOpCommit
	// Compensation marks an operation executed during rollback to
	// logically undo an earlier committed operation. When recovery's redo
	// scan reconstructs a transaction's undo log and meets a compensating
	// op-commit, it pops the compensated logical undo entry instead of
	// pushing a new one (the compensated operation must not be undone
	// twice).
	Compensation bool

	// Audit fields (KindAuditBegin, KindAuditEnd).
	AuditSN      uint64
	AuditClean   bool
	CorruptAddrs []mem.Addr // start of each corrupt region (KindAuditEnd)
	CorruptLens  []uint32   // length of each corrupt region

	// Two-phase-commit fields (KindTxnPrepare, KindTxnDecision).
	GID      uint64 // global transaction ID (coordinator shard | coordinator txn)
	Decision bool   // coordinator verdict: true = commit (KindTxnDecision)
}

// Encoding layout. One Append is one frame,
//
//	[payloadLen uint32][crc32c(payload) uint32][record][record]...
//
// so that a torn write at the stable log tail is detected and treated as
// the end of the log, as in any WAL implementation, and a torn tail always
// ends on an Append boundary. The records sit back to back in the payload;
// a record's LSN is its frame's LSN plus its offset in the payload, so the
// first record takes the frame's own LSN.
//
// A record opens with a tag byte: the Kind in the low four bits, flags in
// the high four. A record may refer back to earlier records of its own
// frame (frameState), never forward and never across a frame boundary:
//
//   - flagTxn: the transaction id follows. It is omitted when it equals the
//     previous record's (0 before a frame's first record).
//   - flagBool: the kind's one boolean — HasCW (phys-redo, read),
//     Compensation (op-commit), Decision (txn-decision), AuditClean
//     (audit-end).
//   - flagSameOp (op-commit): level and key are those of the nearest
//     preceding op-begin of the frame, and are omitted.
//   - flagUndoIsKey (op-commit): the undo key equals the key, and is
//     omitted.
const (
	// FrameHeaderSize is the length and checksum word ahead of every frame.
	FrameHeaderSize = 8

	kindMask      = 0x0f
	flagTxn       = 0x10
	flagBool      = 0x20
	flagSameOp    = 0x40
	flagUndoIsKey = 0x80
)

var (
	// ErrTornRecord reports a truncated or corrupt record frame at the
	// stable log tail.
	ErrTornRecord = errors.New("wal: torn or corrupt log record")
	castagnoli    = crc32.MakeTable(crc32.Castagnoli)
)

// appendUvarint appends a varint-encoded value.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// uvarintLen is the number of bytes appendUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// frameState is what a record may refer back to within its frame. Encoder
// and decoder advance it alike, and it starts empty with every frame.
type frameState struct {
	txn     TxnID // the previous record's transaction
	opLevel uint8 // the nearest preceding op-begin, when haveOp
	opKey   ObjectKey
	haveOp  bool
}

// tag is the tag byte r encodes to after the frame's earlier records. It
// is the one encoding of r there: the decoder refuses any other.
func (st *frameState) tag(r *Record) byte {
	t := byte(r.Kind)
	if r.Txn != st.txn {
		t |= flagTxn
	}
	var b bool
	switch r.Kind {
	case KindPhysRedo, KindRead:
		b = r.HasCW
	case KindOpCommit:
		b = r.Compensation
		if st.haveOp && r.Level == st.opLevel && r.Key == st.opKey {
			t |= flagSameOp
		}
		if r.Undo.Key == r.Key {
			t |= flagUndoIsKey
		}
	case KindTxnDecision:
		b = r.Decision
	case KindAuditEnd:
		b = r.AuditClean
	}
	if b {
		t |= flagBool
	}
	return t
}

// note advances st past r.
func (st *frameState) note(r *Record) {
	st.txn = r.Txn
	if r.Kind == KindOpBegin {
		st.opLevel, st.opKey, st.haveOp = r.Level, r.Key, true
	}
}

// EncodedSize returns the number of bytes Encode produces for r — a frame
// holding r alone — without encoding anything. It mirrors appendRecord
// field for field.
func (r *Record) EncodedSize() int {
	var st frameState
	tag := st.tag(r)
	n := FrameHeaderSize + 1
	if tag&flagTxn != 0 {
		n += uvarintLen(uint64(r.Txn))
	}
	switch r.Kind {
	case KindPhysRedo:
		n += uvarintLen(uint64(r.Addr)) + uvarintLen(uint64(len(r.Data))) + len(r.Data) + r.cwLen()
	case KindRead:
		n += uvarintLen(uint64(r.Addr)) + uvarintLen(uint64(r.Len)) + r.cwLen()
	case KindOpBegin:
		n += 1 + uvarintLen(uint64(r.Key))
	case KindOpCommit:
		n += 2 + uvarintLen(uint64(r.Key)) + uvarintLen(uint64(len(r.Undo.Args))) + len(r.Undo.Args)
		if tag&flagUndoIsKey == 0 {
			n += uvarintLen(uint64(r.Undo.Key))
		}
	case KindTxnPrepare, KindTxnDecision:
		n += uvarintLen(r.GID)
	case KindAuditBegin:
		n += uvarintLen(r.AuditSN)
	case KindAuditEnd:
		n += uvarintLen(r.AuditSN) + uvarintLen(uint64(len(r.CorruptAddrs)))
		for i := range r.CorruptAddrs {
			n += uvarintLen(uint64(r.CorruptAddrs[i])) + uvarintLen(uint64(r.CorruptLens[i]))
		}
	}
	return n
}

func (r *Record) cwLen() int {
	if r.HasCW {
		return 8
	}
	return 0
}

// Encode appends a frame holding r alone to b.
func (r *Record) Encode(b []byte) []byte {
	start := len(b)
	var st frameState
	b = st.appendRecord(append(b, make([]byte, FrameHeaderSize)...), r)
	sealFrame(b[start:])
	return b
}

// sealFrame back-fills the length and checksum of frame, whose header was
// reserved before its records were encoded straight in behind it — the
// log tail is the only buffer a record's bytes ever occupy.
func sealFrame(frame []byte) {
	payload := frame[FrameHeaderSize:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
}

// appendRecord appends r, encoded after the frame's earlier records, to b.
func (st *frameState) appendRecord(b []byte, r *Record) []byte {
	tag := st.tag(r)
	b = append(b, tag)
	if tag&flagTxn != 0 {
		b = appendUvarint(b, uint64(r.Txn))
	}
	switch r.Kind {
	case KindPhysRedo:
		b = appendUvarint(b, uint64(r.Addr))
		b = appendUvarint(b, uint64(len(r.Data)))
		b = append(b, r.Data...)
		b = r.appendCW(b)
	case KindRead:
		b = appendUvarint(b, uint64(r.Addr))
		b = appendUvarint(b, uint64(r.Len))
		b = r.appendCW(b)
	case KindOpBegin:
		b = append(b, r.Level)
		b = appendUvarint(b, uint64(r.Key))
	case KindOpCommit:
		if tag&flagSameOp == 0 {
			b = append(b, r.Level)
			b = appendUvarint(b, uint64(r.Key))
		}
		b = append(b, r.Undo.Op)
		if tag&flagUndoIsKey == 0 {
			b = appendUvarint(b, uint64(r.Undo.Key))
		}
		b = appendUvarint(b, uint64(len(r.Undo.Args)))
		b = append(b, r.Undo.Args...)
	case KindTxnBegin, KindTxnCommit, KindTxnAbort:
		// The tag and the transaction suffice.
	case KindTxnPrepare, KindTxnDecision:
		b = appendUvarint(b, r.GID)
	case KindAuditBegin:
		b = appendUvarint(b, r.AuditSN)
	case KindAuditEnd:
		b = appendUvarint(b, r.AuditSN)
		b = appendUvarint(b, uint64(len(r.CorruptAddrs)))
		for i := range r.CorruptAddrs {
			b = appendUvarint(b, uint64(r.CorruptAddrs[i]))
			b = appendUvarint(b, uint64(r.CorruptLens[i]))
		}
	}
	st.note(r)
	return b
}

func (r *Record) appendCW(b []byte) []byte {
	if r.HasCW {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.CW))
	}
	return b
}

// decodeReader tracks a position in a payload buffer.
type decodeReader struct {
	buf []byte
	pos int
	err error
}

// uvarint reads a varint in its shortest form: a longer one (a last byte of
// zero) is no encoding appendUvarint writes.
func (d *decodeReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 || n > 1 && d.buf[d.pos+n-1] == 0 {
		d.err = ErrTornRecord
		return 0
	}
	d.pos += n
	return v
}

func (d *decodeReader) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.err = ErrTornRecord
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *decodeReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.pos {
		d.err = ErrTornRecord
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *decodeReader) uint64() uint64 {
	b := d.bytes(8)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// codeword reads the codeword of a read or physical record whose tag
// carries one.
func (d *decodeReader) codeword(tag byte) (bool, region.Codeword) {
	if tag&flagBool == 0 {
		return false, 0
	}
	return true, region.Codeword(d.uint64())
}

// frameLen is the frame walker every reader of the stable log shares: the
// byte length of the frame at the head of b, or 0 when b does not begin
// with a whole frame whose payload matches its checksum. The valid prefix
// of a log is the longest run of frames it accepts — where a scan ends,
// where an open truncates, what a compaction or truncation point must sit
// on. verify false takes the checksum on trust (bytes that passed before).
//
// An empty payload is no frame although its checksum, CRC32C("") = 0,
// matches its length: no Append encodes to zero bytes, and eight zero
// bytes are what a zero-filled tail (file extended, blocks never written)
// looks like — a torn tail, which must end the prefix, not a record.
func frameLen(b []byte, verify bool) int {
	if len(b) < FrameHeaderSize {
		return 0
	}
	n := FrameHeaderSize + int(binary.LittleEndian.Uint32(b))
	if n == FrameHeaderSize || n > len(b) {
		return 0
	}
	if verify && crc32.Checksum(b[FrameHeaderSize:n], castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return 0
	}
	return n
}

// ErrBadPayload reports a frame the walker accepts whose payload does not
// decode (unknown kind, field past the end, an encoding the encoder never
// writes). Its writer checksummed exactly these bytes, so it is no torn
// tail: scans and opens fail with this error rather than truncate the
// frame away or keep it silently.
var ErrBadPayload = errors.New("wal: log record has a valid checksum but does not decode")

// frameReader decodes the records of one frame's payload in order.
type frameReader struct {
	d  decodeReader
	st frameState
}

func (f *frameReader) reset(payload []byte) { *f = frameReader{d: decodeReader{buf: payload}} }

// more reports whether records of the frame remain to be decoded.
func (f *frameReader) more() bool { return f.d.pos < len(f.d.buf) }

// next fills r, which the caller owns and may reuse, from the record at
// the reader's position. Every field is reset; the corrupt-range slices
// keep their capacity. r.Data and r.Undo.Args alias the payload: a caller
// that keeps them past the buffer's life copies them.
func (f *frameReader) next(r *Record) error {
	d, st := &f.d, &f.st
	addrs, lens := r.CorruptAddrs[:0], r.CorruptLens[:0]
	*r = Record{} // cleared in place; a literal naming r's own fields would be built aside and copied
	r.CorruptAddrs, r.CorruptLens = addrs, lens
	tag := d.byte()
	r.Kind = Kind(tag & kindMask)
	r.Txn = st.txn
	if tag&flagTxn != 0 {
		r.Txn = TxnID(d.uvarint())
	}
	switch r.Kind {
	case KindPhysRedo:
		r.Addr = mem.Addr(d.uvarint())
		r.Data = d.bytes(int(d.uvarint()))
		r.HasCW, r.CW = d.codeword(tag)
	case KindRead:
		r.Addr = mem.Addr(d.uvarint())
		r.Len = int(d.uvarint())
		r.HasCW, r.CW = d.codeword(tag)
	case KindOpBegin:
		r.Level = d.byte()
		r.Key = ObjectKey(d.uvarint())
	case KindOpCommit:
		r.Compensation = tag&flagBool != 0
		if tag&flagSameOp != 0 {
			r.Level, r.Key = st.opLevel, st.opKey
		} else {
			r.Level = d.byte()
			r.Key = ObjectKey(d.uvarint())
		}
		r.Undo.Op = d.byte()
		r.Undo.Key = r.Key
		if tag&flagUndoIsKey == 0 {
			r.Undo.Key = ObjectKey(d.uvarint())
		}
		r.Undo.Args = d.bytes(int(d.uvarint()))
	case KindTxnBegin, KindTxnCommit, KindTxnAbort:
	case KindTxnPrepare:
		r.GID = d.uvarint()
	case KindTxnDecision:
		r.GID = d.uvarint()
		r.Decision = tag&flagBool != 0
	case KindAuditBegin:
		r.AuditSN = d.uvarint()
	case KindAuditEnd:
		r.AuditSN = d.uvarint()
		r.AuditClean = tag&flagBool != 0
		// Each range takes at least two bytes: a count beyond that is short.
		if n := d.uvarint(); n > uint64(len(d.buf)-d.pos)/2 {
			d.err = ErrTornRecord
		} else {
			for i := 0; i < int(n) && d.err == nil; i++ {
				r.CorruptAddrs = append(r.CorruptAddrs, mem.Addr(d.uvarint()))
				l := d.uvarint()
				if l > math.MaxUint32 {
					d.err = ErrTornRecord
				}
				r.CorruptLens = append(r.CorruptLens, uint32(l))
			}
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadPayload, r.Kind)
	}
	if d.err != nil {
		return fmt.Errorf("%w: %s record is short", ErrBadPayload, r.Kind)
	}
	if want := st.tag(r); tag != want {
		return fmt.Errorf("%w: %s record tagged %#x, which encodes as %#x", ErrBadPayload, r.Kind, tag, want)
	}
	st.note(r)
	return nil
}
