package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// startServer opens a K-shard database in a temp dir and serves it on a
// loopback listener. Cleanup drains the server and closes the router.
func startServer(t *testing.T, k int, scfg ServerConfig) (*shard.Router, *Server, string) {
	t.Helper()
	router, _, err := shard.Open(shard.Config{
		Dir:         t.TempDir(),
		Shards:      k,
		ArenaSize:   1 << 18,
		ValueSize:   64,
		Capacity:    1024,
		LockTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("shard.Open: %v", err)
	}
	srv := NewServer(router, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		router.Close()
	})
	return router, srv, ln.Addr().String()
}

func TestClientServerRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, 4, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := c.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := c.Begin(); err == nil {
		t.Fatal("nested Begin succeeded")
	}
	if err := c.Put(1, []byte("one")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, err := c.Get(1); err != nil || string(got) != "one" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := c.Get(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := c.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := c.Commit(); err == nil {
		t.Fatal("Commit without transaction succeeded")
	}

	// Committed data visible to a second transaction on the same conn.
	if err := c.Begin(); err != nil {
		t.Fatalf("second Begin: %v", err)
	}
	if got, err := c.Get(1); err != nil || string(got) != "one" {
		t.Fatalf("Get after commit = %q, %v", got, err)
	}
	if err := c.Delete(1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := c.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	// Abort rolled the delete back.
	if err := c.Begin(); err != nil {
		t.Fatalf("third Begin: %v", err)
	}
	if got, err := c.Get(1); err != nil || string(got) != "one" {
		t.Fatalf("Get after abort = %q, %v", got, err)
	}
	if err := c.Abort(); err != nil {
		t.Fatalf("final Abort: %v", err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m["router"].Counter(obs.NameShardTxns) == 0 {
		t.Fatal("metrics snapshot shows no transactions")
	}
	if _, ok := m["shard-003"]; !ok {
		t.Fatalf("metrics snapshot missing shard-003: have %d keys", len(m))
	}
}

// TestConcurrentClients hammers the server from many connections at
// once; run under -race this doubles as the server's data-race check.
func TestConcurrentClients(t *testing.T) {
	router, _, addr := startServer(t, 4, ServerConfig{MaxConns: 32})

	const (
		workers = 8
		txnsPer = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < txnsPer; i++ {
				key := uint64(1000 + w*txnsPer + i)
				if err := c.Begin(); err != nil {
					errs <- fmt.Errorf("worker %d begin: %w", w, err)
					return
				}
				if err := c.Put(key, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- fmt.Errorf("worker %d put: %w", w, err)
					return
				}
				// Every fourth transaction also touches a shared key range
				// to force cross-shard and lock-conflict traffic.
				if i%4 == 0 {
					if err := c.Put(uint64(i), []byte("shared")); err != nil {
						errs <- fmt.Errorf("worker %d shared put: %w", w, err)
						return
					}
				}
				if err := c.Commit(); err != nil {
					errs <- fmt.Errorf("worker %d commit: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every worker's private keys must be readable afterwards.
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("verify dial: %v", err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatalf("verify begin: %v", err)
	}
	for w := 0; w < workers; w++ {
		key := uint64(1000 + w*txnsPer + txnsPer - 1)
		want := fmt.Sprintf("w%d-%d", w, txnsPer-1)
		if got, err := c.Get(key); err != nil || string(got) != want {
			t.Fatalf("Get(%d) = %q, %v; want %q", key, got, err, want)
		}
	}
	if err := c.Abort(); err != nil {
		t.Fatalf("verify abort: %v", err)
	}
	if err := router.Audit(); err != nil {
		t.Fatalf("post-load audit: %v", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	_, srv, addr := startServer(t, 1, ServerConfig{MaxConns: 2})

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Admission is counted at accept; ping to make sure both are in.
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}

	// A rejected connection is sent the busy frame unprompted; read it
	// raw so the server's close cannot race our own write.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := ReadFrame(raw)
	if err != nil {
		t.Fatalf("reading rejection frame: %v", err)
	}
	if code, _ := DecodeErr(payload); typ != MsgErr || code != ErrCodeBusy {
		t.Fatalf("rejection frame = type %#02x code %#02x, want MsgErr/busy", typ, code)
	}

	snap := srv.router.Observability().Snapshot()
	if snap.Counter(obs.NameServerConnsRejected) != 1 {
		t.Fatalf("conns_rejected = %d, want 1", snap.Counter(obs.NameServerConnsRejected))
	}
	if snap.Gauge(obs.NameServerConns) != 2 {
		t.Fatalf("conns gauge = %d, want 2", snap.Gauge(obs.NameServerConns))
	}
}

// TestGracefulDrain checks the SIGTERM path: a client mid-transaction
// when Shutdown begins gets to finish and commit; idle connections are
// closed; new connections are refused; Shutdown returns nil within the
// grace period and the router still audits clean.
func TestGracefulDrain(t *testing.T) {
	router, srv, addr := startServer(t, 2, ServerConfig{})

	busy, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := idle.Ping(); err != nil {
		t.Fatal(err)
	}

	if err := busy.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := busy.Put(42, []byte("mid-drain")); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// The draining server must still serve the open transaction.
	if err := busy.Put(43, []byte("also")); err != nil {
		t.Fatalf("Put during drain: %v", err)
	}
	if err := busy.Commit(); err != nil {
		t.Fatalf("Commit during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// After drain: the connection is gone and new work is refused.
	if err := busy.Ping(); err == nil {
		t.Fatal("Ping succeeded after drain closed the connection")
	}
	if err := router.Audit(); err != nil {
		t.Fatalf("audit after drain: %v", err)
	}

	// The committed transaction survived the drain.
	txn := router.Begin()
	defer txn.Abort()
	if got, err := txn.Get(42); err != nil || string(got) != "mid-drain" {
		t.Fatalf("Get(42) after drain = %q, %v", got, err)
	}
}

// TestServeAfterShutdown: a Shutdown that reaches the server before the
// goroutine running Serve does is a clean shutdown, not a Serve failure —
// Serve returns nil and closes the listener it was handed.
func TestServeAfterShutdown(t *testing.T) {
	router, _, err := shard.Open(shard.Config{Dir: t.TempDir(), Shards: 1, ArenaSize: 1 << 18, ValueSize: 64, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	srv := NewServer(router, ServerConfig{})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err != nil {
		t.Fatalf("Serve after Shutdown = %v, want nil", err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("Serve after Shutdown left its listener open")
	}
}

// TestServerSmoke is the make server-smoke entry point: a K=4 server
// takes a short mixed load from several clients, drains cleanly, and
// every shard passes a full audit and clean close.
func TestServerSmoke(t *testing.T) {
	router, srv, addr := startServer(t, 4, ServerConfig{MaxConns: 16})

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			// Worker 0 writes one key per transaction (guaranteed
			// fastpath); the rest write three (almost surely cross-shard).
			perTxn := 3
			if w == 0 {
				perTxn = 1
			}
			for i := 0; i < 20; i++ {
				if err := c.Begin(); err != nil {
					errs <- err
					return
				}
				for j := 0; j < perTxn; j++ {
					key := uint64(w)<<32 | uint64(i*3+j)
					if err := c.Put(key, []byte(fmt.Sprintf("smoke-%d", i))); err != nil {
						errs <- err
						return
					}
				}
				if i%5 == 4 {
					if err := c.Abort(); err != nil {
						errs <- err
						return
					}
					continue
				}
				if err := c.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := router.Audit(); err != nil {
		t.Fatalf("post-drain audit: %v", err)
	}
	snap := router.Metrics()["router"]
	if snap.Counter(obs.NameShardFastpathCommits) == 0 {
		t.Fatal("smoke load produced no fastpath commits")
	}
	if snap.Counter(obs.NameShardCrossCommits) == 0 {
		t.Fatal("smoke load produced no cross-shard commits")
	}
}
