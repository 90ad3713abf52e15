package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// countingConn counts the client's writes: one per flushed batch.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestPipelinedTxnRoundTrips pins the pipeline's shape: Begin and the
// Puts ride with the next waiting call, so Begin + 4 x (Get, Put) +
// Commit is 5 flushed batches, while the server still serves 10 requests.
func TestPipelinedTxnRoundTrips(t *testing.T) {
	router, _, addr := startServer(t, 2, ServerConfig{})
	seed := router.Begin()
	for k := uint64(1); k <= 4; k++ {
		if err := seed.Put(k, []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := &countingConn{Conn: raw}
	c := newClient(conn)
	defer c.Close()
	requests := func() uint64 {
		return router.Observability().Snapshot().Counter(obs.NameServerRequests)
	}
	before := requests()

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		if got, err := c.Get(k); err != nil || string(got) != "v0" {
			t.Fatalf("Get(%d) = %q, %v", k, got, err)
		}
		if err := c.Put(k, []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := conn.writes.Load(); n != 5 {
		t.Errorf("client flushed %d batches, want 5", n)
	}
	if n := requests() - before; n != 10 {
		t.Errorf("server.requests grew by %d, want 10", n)
	}
}

// TestRefusedPutNeverCommits: a Put the server refuses, pipelined ahead
// of Commit, must roll the transaction back — the earlier, accepted Put
// included — and leave the connection usable.
func TestRefusedPutNeverCommits(t *testing.T) {
	router, _, addr := startServer(t, 2, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Over the server's 64-byte ValueSize. Deferred, so its refusal may
	// surface here or at Commit; Commit must fail either way.
	putErr := c.Put(2, make([]byte, 65))
	if err := c.Commit(); err == nil {
		t.Fatalf("Commit after a refused Put succeeded (Put returned %v)", putErr)
	}

	txn := router.Begin()
	for _, k := range []uint64{1, 2} {
		if v, err := txn.Get(k); !errors.Is(err, shard.ErrNotFound) {
			t.Errorf("key %d after the refused transaction: %q, %v; want not found", k, v, err)
		}
	}
	txn.Abort()

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(3, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatalf("next transaction on the same connection: %v", err)
	}
}

// TestDeferredBeginRefusedByDrain: a Begin still in the client's buffer
// when the server drains must surface as ErrServerDraining at the next
// waiting call, not as io.EOF or a transaction-state error.
func TestDeferredBeginRefusedByDrain(t *testing.T) {
	_, srv, addr := startServer(t, 1, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil { // admitted, then idle
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with only idle connections: %v", err)
	}
	if _, err := c.Get(1); !errors.Is(err, ErrServerDraining) {
		t.Fatalf("Get after a drained deferred Begin = %v, want ErrServerDraining", err)
	}
}

// TestHalfFrameFlushes: replies wait for the end of a batch, but a client
// that has sent only part of its next frame is waiting too, so the server
// must flush before it blocks on the rest.
func TestHalfFrameFlushes(t *testing.T) {
	_, _, addr := startServer(t, 1, ServerConfig{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var buf bytes.Buffer
	WriteFrame(&buf, MsgPing, nil)
	WriteFrame(&buf, MsgPing, nil)
	if _, err := raw.Write(buf.Bytes()[:5+3]); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(time.Second))
	if typ, _, err := ReadFrame(raw); err != nil || typ != MsgOK {
		t.Fatalf("reply to the complete PING: type %#02x, %v; want OK", typ, err)
	}
}

// smallBufListener shrinks every accepted connection's socket buffers.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		shrinkBuffers(c)
	}
	return c, err
}

func shrinkBuffers(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096)
		tc.SetWriteBuffer(4096)
	}
}

// TestLongWriteOnlyTxn: 10,000 deferred Puts in one transaction over
// small socket buffers. Without the cap on owed replies the client never
// reads, the server blocks writing replies, and both sides deadlock.
func TestLongWriteOnlyTxn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, _, addr := startServerOn(t, 1, ServerConfig{}, smallBufListener{ln})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	shrinkBuffers(raw)
	c := newClient(raw)
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		if err := c.Begin(); err != nil {
			done <- err
			return
		}
		val := make([]byte, 64)
		for i := 0; i < 10000; i++ {
			if err := c.Put(uint64(i%64), val); err != nil {
				done <- fmt.Errorf("Put %d: %w", i, err)
				return
			}
		}
		done <- c.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		raw.Close()
		t.Fatal("a 10,000-Put transaction did not commit: client and server deadlocked")
	}
}

// FuzzServerStream feeds arbitrary bytes to one server connection. The
// server must never panic or hang, must answer each parsed request with
// exactly one frame, in order, and must close after the first malformed
// frame, answering it with a bad-request error.
func FuzzServerStream(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, MsgBegin, nil)
	WriteFrame(&seed, MsgPut, append(AppendKey(nil, 7), "seven"...))
	WriteFrame(&seed, MsgGet, AppendKey(nil, 7))
	WriteFrame(&seed, MsgCommit, nil)
	f.Add(seed.Bytes())
	f.Add(append(bytes.Clone(seed.Bytes()[:5]), 0x09, 0x00, 0x00)) // BEGIN, then half a header
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, MsgPing, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, MsgPing})
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, MsgBegin, 0x01})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0xee})

	router, _, err := shard.Open(shard.Config{Dir: f.TempDir(), Shards: 2, ArenaSize: 1 << 18, ValueSize: 64, Capacity: 1024})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { router.Close() })
	srv := NewServer(router, ServerConfig{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// What the server must answer: one frame per parsed request, and
		// for a malformed frame one bad-request frame and a close. A
		// truncated final frame is not answered; the server waits for it.
		want, malformed := 0, false
		for r := bytes.NewReader(data); ; {
			typ, payload, err := ReadFrame(r)
			if err == nil {
				_, err = ParseRequest(typ, payload)
			}
			if err == nil {
				want++
				continue
			}
			malformed = errors.Is(err, ErrMalformed) || errors.Is(err, ErrFrameTooLarge)
			if malformed {
				want++
			}
			break
		}

		client, server := net.Pipe()
		defer client.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(&serverConn{Conn: server})
		}()
		go func() { client.Write(data) }()

		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		var typ byte
		var payload []byte
		for i := 0; i < want; i++ {
			if typ, payload, err = ReadFrame(client); err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, want, err)
			}
			if typ != MsgOK && typ != MsgVal && typ != MsgErr {
				t.Fatalf("reply %d: type %#02x is not a response", i+1, typ)
			}
		}
		if malformed {
			if code, _ := DecodeErr(payload); typ != MsgErr || code != ErrCodeBadRequest {
				t.Fatalf("malformed frame answered with type %#02x code %#02x, want a bad-request error", typ, code)
			}
			if _, _, err := ReadFrame(client); err != io.EOF {
				t.Fatalf("after a malformed frame: read %v, want the server to close", err)
			}
		}
		client.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("server connection did not exit after the client closed")
		}
	})
}
