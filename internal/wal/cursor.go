package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/iofault"
)

// Cursor walks the stable records of a log set in global order. Each
// stream file's suffix is read once into a buffer the cursor owns, and
// Next decodes one record at a time into a Record the cursor reuses:
// nothing is allocated per record, nothing materialized. A single stream
// is a straight walk; several are merged on GSN — the unstamped
// single-stream prefix, which only stream 0 holds and whose LSNs every GSN
// exceeds by construction, first in LSN order — with gap detection folded
// into the merge. Each stream ends at the end of its valid prefix (see
// frameLen), a torn tail included; a frame inside the prefix that does not
// decode stops the walk with ErrBadPayload. The log must not be written
// while a cursor reads it.
//
// Record's Data and Undo.Args alias the cursor's buffers and are valid
// until Release; the Record itself only until the following Next.
type Cursor struct {
	streams []streamBuf
	cur     *streamBuf // stream holding the current record
	started bool
	solo    bool // one stream of a set on its own (OpenStreamCursor): no merge, no gaps
	prevGSN uint64
	gaps    []GSNGap
	err     error
}

// streamBuf is one stream file's scanned suffix and the walk's position
// in it.
type streamBuf struct {
	index int    // stream index within the set
	start LSN    // LSN of buf[0]
	buf   []byte // the file from start to its end
	pos   int    // offset of the next frame
	valid int    // frames below this offset have passed the checksum
	head  Record // the frame that ended at pos, while ok
	ok    bool
}

// advance decodes the frame at pos into head; ok is false at the end of
// the valid prefix.
func (s *streamBuf) advance() error {
	rest := s.buf[s.pos:]
	n := frameLen(rest, s.pos >= s.valid)
	if s.ok = n != 0; !s.ok {
		return nil
	}
	if err := decodePayload(&s.head, rest[frameHeaderSize:n]); err != nil {
		return fmt.Errorf("stream %d, LSN %d: %w", s.index, s.start+LSN(s.pos), err)
	}
	s.head.LSN = s.start + LSN(s.pos)
	s.pos += n
	s.valid = max(s.valid, s.pos)
	return nil
}

// OpenCursor reads every stream file in dir from its entry in starts
// (streams beyond the vector, and all of them when starts is nil, from
// their base) and returns a cursor positioned before the first record. A
// start below a stream's base (compacted away) or beyond its end is an
// error; a missing or empty file has no records.
func OpenCursor(fsys iofault.FS, dir string, starts []LSN) (*Cursor, error) {
	n, err := DetectStreamsFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	c := &Cursor{streams: make([]streamBuf, n)}
	for i := range c.streams {
		if err := c.streams[i].read(fsys, dir, i, starts); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// OpenStreamCursor is OpenCursor over stream i alone, in its own LSN order:
// no sibling's file is opened, so none can fail the walk; Ends holds that
// stream's end alone, and Gaps — a property of the merge — stays empty.
func OpenStreamCursor(fsys iofault.FS, dir string, i int, starts []LSN) (*Cursor, error) {
	c := &Cursor{streams: make([]streamBuf, 1), solo: true}
	return c, c.streams[0].read(fsys, dir, i, starts)
}

// read loads stream i's file from its start into s.
func (s *streamBuf) read(fsys iofault.FS, dir string, i int, starts []LSN) error {
	s.index = i
	f, err := fsys.OpenFile(filepath.Join(dir, StreamFileName(i)), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err == nil {
		s.start, s.buf, err = readFrom(f, starts, i)
		f.Close()
	}
	if err != nil {
		return fmt.Errorf("wal: scan stream %d: %w", i, err)
	}
	return nil
}

// readFrom reads stream file f from starts[i] (from its base when the
// vector does not reach i) to its end.
func readFrom(f iofault.File, starts []LSN, i int) (start LSN, buf []byte, err error) {
	base, size, err := readLogHeader(f)
	if err != nil || size == 0 {
		return 0, nil, err
	}
	start, end := base, base+LSN(size-logHeaderSize)
	if i < len(starts) {
		start = starts[i]
	}
	if start < base {
		return 0, nil, fmt.Errorf("start %d precedes log base %d (compacted away)", start, base)
	}
	if start > end {
		return 0, nil, fmt.Errorf("start %d beyond log end %d", start, end)
	}
	buf = make([]byte, end-start)
	_, err = f.ReadAt(buf, logHeaderSize+int64(start-base))
	return start, buf, err
}

// Next advances to the next record in global order. It returns false at
// the end of the log and on error (see Err).
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	if c.cur != nil {
		c.err = c.cur.advance()
	} else if !c.started {
		c.started = true
		for i := range c.streams {
			c.err = errors.Join(c.err, c.streams[i].advance())
		}
	}
	// Lowest GSN wins; only unstamped records tie, and the lowest stream
	// index settles those (its own records stay in LSN order).
	c.cur = nil
	for i := range c.streams {
		if s := &c.streams[i]; s.ok && (c.cur == nil || s.head.GSN < c.cur.head.GSN) {
			c.cur = s
		}
	}
	if c.cur == nil || c.err != nil {
		return false
	}
	if r := &c.cur.head; r.GSN != 0 && !c.solo {
		if c.prevGSN != 0 && r.GSN != c.prevGSN+1 && r.Kind != KindGSNEpoch {
			c.gaps = append(c.gaps, GSNGap{After: c.prevGSN, Next: r.GSN, Stream: c.cur.index})
		}
		c.prevGSN = r.GSN
	}
	return true
}

// Record returns the current record; see Cursor for what it aliases.
func (c *Cursor) Record() *Record { return &c.cur.head }

// Stream reports which stream the current record was read from.
func (c *Cursor) Stream() int { return c.cur.index }

// Err reports the error that stopped the walk, if any.
func (c *Cursor) Err() error { return c.err }

// Rewind repositions the cursor before the first record, for another pass
// over the same buffers.
func (c *Cursor) Rewind() {
	for i := range c.streams {
		c.streams[i].pos, c.streams[i].ok = 0, false
	}
	*c = Cursor{streams: c.streams, solo: c.solo}
}

// Ends reports the end of each stream's valid prefix, indexed by stream:
// the LSN at which an open of the set resumes appending (OpenLogSetFS).
// Streams a pass did not exhaust are walked to their end first.
func (c *Cursor) Ends() []LSN {
	ends := make([]LSN, len(c.streams))
	for i := range c.streams {
		s := &c.streams[i]
		for n := frameLen(s.buf[s.valid:], true); n != 0; n = frameLen(s.buf[s.valid:], true) {
			s.valid += n
		}
		ends[i] = s.start + LSN(s.valid)
	}
	return ends
}

// GSNGap is a hole in the stamped-GSN sequence of a merged multi-stream
// scan: After is the last GSN seen before the hole, Next the first GSN
// after it (Next > After+1 and the record carrying Next is not a session
// epoch), Stream the stream Next was read from.
type GSNGap struct {
	After, Next uint64
	Stream      int
}

// Gaps reports the holes the walk so far found in the stamped-GSN
// sequence. GSNs are stamped one per record from a single shared counter,
// so within a stamping session the merged sequence is dense; the counter
// re-seeds above the total bytes written at every open, and the
// KindGSNEpoch record appended there carries the session's first stamp,
// absorbing exactly that jump. Any other jump is a hole: each stream ends
// independently at its own torn tail, so a record lost from one stream
// would otherwise be silently papered over by higher-GSN survivors on its
// siblings. The commit path's cross-stream dependency force keeps every
// record below an acknowledged commit durable, so a gap below the last
// committed GSN is evidence of a broken durability contract (or a damaged
// log), not of a normal crash — recovery surfaces it rather than trusting
// the merge blindly. Unstamped records (GSN zero, the single-stream
// prefix) are outside the sequence and are skipped.
func (c *Cursor) Gaps() []GSNGap { return c.gaps }

// Release drops the cursor's buffers; no Record obtained from it may be
// used afterwards.
func (c *Cursor) Release() { *c = Cursor{} }
