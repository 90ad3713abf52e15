// Package wire is the storage manager's TCP front end: a small
// length-prefixed binary protocol over which clients run transactions
// against a sharded database (internal/shard), plus the server that
// speaks it and a matching client.
//
// Framing: every message is [uint32 length][uint8 type][payload], with
// length covering the type byte and payload, little-endian, capped at
// MaxFrameSize. A connection carries at most one transaction at a time;
// BEGIN/COMMIT/ABORT bracket it and GET/PUT/DELETE operate within it.
// Requests may be pipelined: a client can send several before reading,
// and the replies come back one per request, in request order. A
// transaction with a refused PUT cannot commit: its COMMIT rolls it back
// and answers an error, so a COMMIT pipelined behind a PUT never commits
// what the client would have aborted. Malformed input is answered with an
// error frame (or a closed connection), never a panic — the decoder and
// the server's request stream are fuzzed for that.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds a frame's length field: type byte plus payload.
// Large enough for any value plus slack for the metrics JSON.
const MaxFrameSize = 1 << 20

// Message types. Requests flow client to server; responses flow back.
const (
	// Requests.
	MsgPing    = 0x01 // payload empty; answered with OK
	MsgBegin   = 0x02 // payload empty; starts the connection's transaction
	MsgGet     = 0x03 // payload [8 key]
	MsgPut     = 0x04 // payload [8 key][value]
	MsgDelete  = 0x05 // payload [8 key]
	MsgCommit  = 0x06 // payload empty
	MsgAbort   = 0x07 // payload empty
	MsgMetrics = 0x08 // payload empty; answered with VAL carrying JSON

	// Responses.
	MsgOK  = 0x10 // payload empty
	MsgVal = 0x11 // payload is the value (GET) or JSON (METRICS)
	MsgErr = 0x12 // payload [1 code][utf-8 message]
)

// Error codes carried in MsgErr frames.
const (
	ErrCodeGeneric    = 0x00
	ErrCodeNotFound   = 0x01 // key not stored
	ErrCodeTxnState   = 0x02 // BEGIN inside a txn, or op outside one
	ErrCodeBusy       = 0x03 // admission control refused the connection
	ErrCodeBadRequest = 0x04 // unknown type or malformed payload
	ErrCodeShutdown   = 0x05 // server is draining
)

// ErrFrameTooLarge reports a length prefix beyond MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrMalformed reports a structurally invalid frame or payload.
var ErrMalformed = errors.New("wire: malformed message")

// WriteFrame writes one frame. The payload may be nil.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame. It refuses zero-length and oversized frames
// before allocating, so a hostile peer cannot force large allocations.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: zero-length frame", ErrMalformed)
	}
	if n > MaxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// Request is a decoded client request.
type Request struct {
	Type byte
	Key  uint64
	Val  []byte
}

// ParseRequest validates and decodes a request frame's payload for its
// type. It returns ErrMalformed (wrapped) for unknown types, payloads of
// the wrong shape, or trailing garbage — never panics, whatever the
// input bytes.
func ParseRequest(typ byte, payload []byte) (Request, error) {
	req := Request{Type: typ}
	switch typ {
	case MsgPing, MsgBegin, MsgCommit, MsgAbort, MsgMetrics:
		if len(payload) != 0 {
			return req, fmt.Errorf("%w: type %#02x wants no payload, got %d bytes", ErrMalformed, typ, len(payload))
		}
	case MsgGet, MsgDelete:
		if len(payload) != 8 {
			return req, fmt.Errorf("%w: type %#02x wants an 8-byte key, got %d bytes", ErrMalformed, typ, len(payload))
		}
		req.Key = binary.LittleEndian.Uint64(payload)
	case MsgPut:
		if len(payload) < 8 {
			return req, fmt.Errorf("%w: PUT wants [key][value], got %d bytes", ErrMalformed, len(payload))
		}
		req.Key = binary.LittleEndian.Uint64(payload)
		req.Val = payload[8:]
	default:
		return req, fmt.Errorf("%w: unknown request type %#02x", ErrMalformed, typ)
	}
	return req, nil
}

// AppendKey encodes key for a GET/DELETE payload.
func AppendKey(dst []byte, key uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, key)
}

// EncodeErr builds a MsgErr payload.
func EncodeErr(code byte, msg string) []byte {
	b := make([]byte, 1+len(msg))
	b[0] = code
	copy(b[1:], msg)
	return b
}

// DecodeErr splits a MsgErr payload. Empty payloads decode as a generic
// error rather than failing: the code byte is the only required part.
func DecodeErr(payload []byte) (code byte, msg string) {
	if len(payload) == 0 {
		return ErrCodeGeneric, "unspecified error"
	}
	return payload[0], string(payload[1:])
}
