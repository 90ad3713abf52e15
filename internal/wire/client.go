package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// ErrNotFound aliases the shard sentinel so callers on either side of
// the wire test the same way: errors.Is(err, ErrNotFound).
var ErrNotFound = shard.ErrNotFound

// ErrServerBusy reports an admission-control rejection.
var ErrServerBusy = errors.New("wire: server busy")

// ErrServerDraining reports a request refused because the server is
// shutting down.
var ErrServerDraining = errors.New("wire: server draining")

// RemoteError is any other error the server answered with.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: server error (code %#02x): %s", e.Code, e.Msg)
}

// maxOwed caps the replies a Client may be owed. At the cap the next
// deferrable request waits instead, so a long write-only transaction
// cannot fill both socket buffers with requests and unread replies.
const maxOwed = 64

// Client is one protocol connection. It carries at most one transaction
// at a time and is not safe for concurrent use; open one Client per
// worker goroutine.
//
// Begin and Put may be deferred: written without a flush, their replies
// read by the next call that waits for the server. Begin defers when no
// reply is owed and no transaction is open; Put defers only inside a
// transaction the server has acknowledged. Every other call waits, and
// returns the first refusal among the deferred replies it reads.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	owed int  // deferred requests whose replies are unread
	open bool // the server acknowledged BEGIN; no COMMIT or ABORT since
}

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout connects with a connect timeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// Close severs the connection. Deferred requests not yet flushed are
// dropped, and a transaction left open is aborted by the server when it
// notices the close.
func (c *Client) Close() error { return c.conn.Close() }

// send writes a deferrable request without waiting for its reply, or
// round-trips it when maxOwed replies are already owed.
func (c *Client) send(typ byte, payload []byte) error {
	if c.owed >= maxOwed {
		return c.expectOK(typ, payload)
	}
	if err := WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	c.owed++
	return nil
}

// roundTrip sends one request frame, flushing every deferred one with it,
// and reads the owed replies in order, then its own. The first refusal
// among the owed replies is returned in place of the request's own reply,
// and it wins over a connection that closes mid-batch.
func (c *Client) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	if err := WriteFrame(c.bw, typ, payload); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	var refused error
	for ; c.owed > 0; c.owed-- {
		rt, rp, err := ReadFrame(c.br)
		if err == nil {
			err = decodeStatus(rt, rp)
		}
		if !c.open {
			// Only a BEGIN is deferred outside a transaction.
			c.open = err == nil
		}
		if refused == nil {
			refused = err
		}
	}
	rt, rp, err := ReadFrame(c.br)
	if refused != nil {
		return 0, nil, refused
	}
	return rt, rp, err
}

// expectOK runs a request whose success response is a bare OK.
func (c *Client) expectOK(typ byte, payload []byte) error {
	rt, rp, err := c.roundTrip(typ, payload)
	if err != nil {
		return err
	}
	return decodeStatus(rt, rp)
}

func decodeStatus(typ byte, payload []byte) error {
	switch typ {
	case MsgOK:
		return nil
	case MsgErr:
		code, msg := DecodeErr(payload)
		switch code {
		case ErrCodeNotFound:
			// The server's message already spells out the sentinel text;
			// avoid "key not found: key not found: N" after re-wrapping.
			return fmt.Errorf("%w: %s", ErrNotFound,
				strings.TrimPrefix(msg, ErrNotFound.Error()+": "))
		case ErrCodeBusy:
			return fmt.Errorf("%w: %s", ErrServerBusy, msg)
		case ErrCodeShutdown:
			return fmt.Errorf("%w: %s", ErrServerDraining, msg)
		default:
			return &RemoteError{Code: code, Msg: msg}
		}
	default:
		return fmt.Errorf("%w: unexpected response type %#02x", ErrMalformed, typ)
	}
}

// Ping round-trips an empty request.
func (c *Client) Ping() error { return c.expectOK(MsgPing, nil) }

// Begin opens the connection's transaction. On an idle connection it is
// deferred, and a refusal surfaces at the next call that waits. Otherwise
// a transaction is open or being opened, and Begin waits for its refusal.
func (c *Client) Begin() error {
	if c.owed == 0 && !c.open {
		return c.send(MsgBegin, nil)
	}
	return c.expectOK(MsgBegin, nil)
}

// Commit commits the connection's transaction. It fails, and the server
// rolls the transaction back, if any Put of the transaction was refused.
func (c *Client) Commit() error { return c.end(MsgCommit) }

// Abort rolls back the connection's transaction.
func (c *Client) Abort() error { return c.end(MsgAbort) }

// end sends COMMIT or ABORT; either way the server closes the transaction.
func (c *Client) end(typ byte) error {
	err := c.expectOK(typ, nil)
	c.open = false
	return err
}

// Get reads key within the open transaction.
func (c *Client) Get(key uint64) ([]byte, error) {
	rt, rp, err := c.roundTrip(MsgGet, AppendKey(nil, key))
	if err != nil {
		return nil, err
	}
	if rt == MsgVal {
		return rp, nil
	}
	return nil, decodeStatus(rt, rp)
}

// Put writes key within the open transaction. Inside a transaction the
// server has acknowledged it is deferred, and a refusal surfaces at the
// next call that waits.
func (c *Client) Put(key uint64, val []byte) error {
	payload := AppendKey(make([]byte, 0, 8+len(val)), key)
	payload = append(payload, val...)
	if c.open {
		return c.send(MsgPut, payload)
	}
	return c.expectOK(MsgPut, payload)
}

// Delete removes key within the open transaction.
func (c *Client) Delete(key uint64) error {
	return c.expectOK(MsgDelete, AppendKey(nil, key))
}

// Metrics fetches the server's full metrics snapshot, keyed "router" and
// "shard-<i>" exactly as shard.Router.Metrics returns it.
func (c *Client) Metrics() (map[string]obs.Snapshot, error) {
	rt, rp, err := c.roundTrip(MsgMetrics, nil)
	if err != nil {
		return nil, err
	}
	if rt != MsgVal {
		return nil, decodeStatus(rt, rp)
	}
	var out map[string]obs.Snapshot
	if err := json.Unmarshal(rp, &out); err != nil {
		return nil, fmt.Errorf("wire: metrics payload: %w", err)
	}
	return out, nil
}
