package wal

import (
	"bytes"
	"encoding/binary"
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
// the valid prefix (see frameLen), a torn tail included; a record inside
// the prefix that does not decode stops the walk with ErrBadPayload. The
// log must not be written while a cursor reads it.
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
	buf   []byte // the file from start to its last non-zero byte
	zeros int    // the file's bytes past buf, all zero
	frame int    // offset of the frame being decoded
	pos   int    // offset of the next frame
	valid int    // frames below this offset have passed the checksum
	rd    frameReader
	head  Record // the record last decoded, while ok
	ok    bool
}

// advance decodes the next record into head, entering the frame at pos
// once the current one is exhausted; ok is false at the end of the valid
// prefix.
func (s *logBuf) advance() error {
	if !s.rd.more() {
		n := s.frameAt(s.pos, s.pos >= s.valid)
		if s.ok = n != 0; !s.ok {
			return nil
		}
		s.rd.reset(s.buf[s.pos+FrameHeaderSize : s.pos+n])
		s.frame = s.pos
		s.pos += n
		s.valid = max(s.valid, s.pos)
	}
	lsn := s.start + LSN(s.frame+s.rd.d.pos)
	if err := s.rd.next(&s.head); err != nil {
		s.ok = false
		return fmt.Errorf("LSN %d: %w", lsn, err)
	}
	s.head.LSN = lsn
	return nil
}

// OpenCursor reads the system log in dir from start (from its base when
// start is nil) and returns a cursor positioned before the first record.
// A start below the base (compacted away) or beyond the end of the valid
// prefix is an error; a missing or empty file has no records. A directory
// holding a multi-stream log is refused.
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
		c.log, err = readFrom(f, start)
		f.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("wal: scan: %w", err)
	}
	return c, nil
}

// readFrom reads log file f from start (from its base when start is nil)
// to its end. A start past the base is checked against the valid prefix,
// which the frames from the base establish: past its end lie a torn tail
// or the zero hole of an extended file, never records.
func readFrom(f iofault.File, start *LSN) (logBuf, error) {
	s, err := readLog(f)
	if err != nil || s.buf == nil {
		return logBuf{}, err
	}
	from := s.start
	if start != nil {
		from = *start
	}
	if from < s.start {
		return logBuf{}, fmt.Errorf("start %d precedes log base %d (compacted away)", from, s.start)
	}
	off, end := s.boundary(from)
	if end < off {
		return logBuf{}, fmt.Errorf("start %d beyond log end %d", from, s.start+LSN(end))
	}
	s.start, s.buf = from, s.buf[off:]
	return s, nil
}

// readLog reads log file f from its base (a nil buf for an empty file) up
// to the last non-zero byte, so the zero hole a flush extends the file by
// is neither read nor allocated; frameAt takes back the zeros a frame
// reaches into.
func readLog(f iofault.File) (logBuf, error) {
	base, size, err := readLogHeader(f)
	if err != nil || size == 0 {
		return logBuf{}, err
	}
	end, chunk := size, make([]byte, 16<<10)
	for end > logHeaderSize {
		c := chunk[:min(int64(len(chunk)), end-logHeaderSize)]
		if _, err := f.ReadAt(c, end-int64(len(c))); err != nil {
			return logBuf{}, err
		}
		// c is all zeros iff its first byte is and it equals itself shifted.
		if c[0] != 0 || !bytes.Equal(c[1:], c[:len(c)-1]) {
			end -= int64(len(c) - len(bytes.TrimRight(c, "\x00")))
			break
		}
		end -= int64(len(c))
	}
	buf := make([]byte, end-logHeaderSize, min(size, end+4096)-logHeaderSize) // room for a frame's trailing zeros
	_, err = f.ReadAt(buf, logHeaderSize)
	return logBuf{start: base, buf: buf, zeros: int(size - end)}, err
}

// frameAt is frameLen of the frame at offset p. A frame whose own last
// bytes (its header's, then its payload's) are zeros reaches past the
// buffer; those bytes come back from zeros first.
func (s *logBuf) frameAt(p int, verify bool) int {
	for {
		need := p + FrameHeaderSize
		if need <= len(s.buf) {
			need += int(binary.LittleEndian.Uint32(s.buf[p:]))
		}
		over := need - len(s.buf)
		if over <= 0 || over > s.zeros {
			return frameLen(s.buf[p:], verify)
		}
		s.buf, s.zeros = append(s.buf, make([]byte, over)...), s.zeros-over
	}
}

// boundary walks the frames from the start of the buffer toward lsn. It
// returns lsn's offset (capped one past the file's end) and p, the first
// frame boundary at or past it or the end of the valid prefix if sooner.
func (s *logBuf) boundary(lsn LSN) (off, p int) {
	off = int(min(lsn-s.start, LSN(len(s.buf)+s.zeros)+1))
	for p < off {
		n := s.frameAt(p, true)
		if n == 0 {
			break
		}
		p += n
	}
	return off, p
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
	c.log.rd.reset(nil)
}

// FrameEnd reports the LSN one past the frame holding the current record:
// the first point after it at which the log may be cut (TruncateAtFS).
func (c *Cursor) FrameEnd() LSN { return c.log.start + LSN(c.log.pos) }

// End reports the end of the valid prefix: the LSN at which an open of the
// log resumes appending (OpenSystemLogFS). A log a pass did not exhaust is
// walked to its end first.
func (c *Cursor) End() LSN {
	s := &c.log
	for n := s.frameAt(s.valid, true); n != 0; n = s.frameAt(s.valid, true) {
		s.valid += n
	}
	return s.start + LSN(s.valid)
}

// Release drops the cursor's buffer; no Record obtained from it may be
// used afterwards.
func (c *Cursor) Release() { *c = Cursor{} }
