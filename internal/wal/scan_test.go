package wal

import "repro/internal/iofault"

// scanLog visits the stable records in dir from LSN from until fn returns
// false. Each record handed to fn is a copy the test may keep.
func scanLog(dir string, from LSN, fn func(*Record) bool) error {
	cur, err := OpenCursor(iofault.OS, dir, &from)
	if err != nil {
		return err
	}
	for cur.Next() {
		if !fn(cloneRecord(cur.Record())) {
			return nil
		}
	}
	return cur.Err()
}

// scanAll returns every stable record in dir, from the log's base, in LSN
// order.
func scanAll(dir string) ([]*Record, error) {
	cur, err := OpenCursor(iofault.OS, dir, nil)
	if err != nil {
		return nil, err
	}
	var out []*Record
	for cur.Next() {
		out = append(out, cloneRecord(cur.Record()))
	}
	return out, cur.Err()
}

// cloneRecord detaches a cursor's record from the cursor's buffers.
func cloneRecord(r *Record) *Record {
	c := *r
	c.Data = append([]byte(nil), r.Data...)
	c.Undo.Args = append([]byte(nil), r.Undo.Args...)
	c.CorruptAddrs = append(c.CorruptAddrs[:0:0], r.CorruptAddrs...)
	c.CorruptLens = append(c.CorruptLens[:0:0], r.CorruptLens...)
	return &c
}

// decodeFrame decodes the frame at the head of b into a fresh record.
func decodeFrame(b []byte) (*Record, int, error) {
	n := frameLen(b, true)
	if n == 0 {
		return nil, 0, ErrTornRecord
	}
	r := new(Record)
	if err := decodePayload(r, b[frameHeaderSize:n]); err != nil {
		return nil, 0, err
	}
	return r, n, nil
}
