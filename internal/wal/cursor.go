package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/iofault"
)

// Cursor walks the stable records of the system log in LSN order. The
// file's suffix is read once into a buffer the cursor owns, and Next
// decodes one record at a time into a Record the cursor reuses: nothing is
// allocated per record, nothing materialized. The walk ends at the end of
// the valid prefix (see frameLen), a torn tail included; a frame inside the
// prefix that does not decode stops the walk with ErrBadPayload. The log
// must not be written while a cursor reads it.
//
// Record's Data and Undo.Args alias the cursor's buffer and are valid
// until Release; the Record itself only until the following Next.
type Cursor struct {
	log logBuf
	err error
}

// logBuf is the log file's scanned suffix and the walk's position in it.
type logBuf struct {
	start LSN    // LSN of buf[0]
	buf   []byte // the file from start to its end
	pos   int    // offset of the next frame
	valid int    // frames below this offset have passed the checksum
	head  Record // the frame that ended at pos, while ok
	ok    bool
}

// advance decodes the frame at pos into head; ok is false at the end of
// the valid prefix.
func (s *logBuf) advance() error {
	rest := s.buf[s.pos:]
	n := frameLen(rest, s.pos >= s.valid)
	if s.ok = n != 0; !s.ok {
		return nil
	}
	if err := decodePayload(&s.head, rest[frameHeaderSize:n]); err != nil {
		return fmt.Errorf("LSN %d: %w", s.start+LSN(s.pos), err)
	}
	s.head.LSN = s.start + LSN(s.pos)
	s.pos += n
	s.valid = max(s.valid, s.pos)
	return nil
}

// OpenCursor reads the system log in dir from start (from its base when
// start is nil) and returns a cursor positioned before the first record.
// A start below the base (compacted away) or beyond the end is an error; a
// missing or empty file has no records. A directory holding a multi-stream
// log is refused.
func OpenCursor(fsys iofault.FS, dir string, start *LSN) (*Cursor, error) {
	if err := refuseStreams(fsys, dir); err != nil {
		return nil, err
	}
	c := &Cursor{}
	f, err := fsys.OpenFile(filepath.Join(dir, LogFileName), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return c, nil
	}
	if err == nil {
		c.log.start, c.log.buf, err = readFrom(f, start)
		f.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("wal: scan: %w", err)
	}
	return c, nil
}

// readFrom reads log file f from start (from its base when start is nil)
// to its end.
func readFrom(f iofault.File, start *LSN) (LSN, []byte, error) {
	base, size, err := readLogHeader(f)
	if err != nil || size == 0 {
		return 0, nil, err
	}
	from, end := base, base+LSN(size-logHeaderSize)
	if start != nil {
		from = *start
	}
	if from < base {
		return 0, nil, fmt.Errorf("start %d precedes log base %d (compacted away)", from, base)
	}
	if from > end {
		return 0, nil, fmt.Errorf("start %d beyond log end %d", from, end)
	}
	buf := make([]byte, end-from)
	_, err = f.ReadAt(buf, logHeaderSize+int64(from-base))
	return from, buf, err
}

// Next advances to the next record. It returns false at the end of the log
// and on error (see Err).
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	c.err = c.log.advance()
	return c.err == nil && c.log.ok
}

// Record returns the current record; see Cursor for what it aliases.
func (c *Cursor) Record() *Record { return &c.log.head }

// Err reports the error that stopped the walk, if any.
func (c *Cursor) Err() error { return c.err }

// Rewind repositions the cursor before the first record, for another pass
// over the same buffer.
func (c *Cursor) Rewind() {
	c.log.pos, c.log.ok, c.err = 0, false, nil
}

// End reports the end of the valid prefix: the LSN at which an open of the
// log resumes appending (OpenSystemLogFS). A log a pass did not exhaust is
// walked to its end first.
func (c *Cursor) End() LSN {
	s := &c.log
	for n := frameLen(s.buf[s.valid:], true); n != 0; n = frameLen(s.buf[s.valid:], true) {
		s.valid += n
	}
	return s.start + LSN(s.valid)
}

// Release drops the cursor's buffer; no Record obtained from it may be
// used afterwards.
func (c *Cursor) Release() { *c = Cursor{} }
