// Command dbserver serves a sharded, codeword-protected database over
// the wire protocol (internal/wire). Each of the -shards arenas is a
// full engine — own WAL, ping-pong checkpoints, lock manager — opened
// through restart recovery (in parallel, with cross-shard in-doubt
// resolution) when the directory already holds data.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener closes, idle
// connections part, open transactions get -grace to finish, then every
// shard is checkpointed, audited, and cleanly closed.
//
// Usage:
//
//	dbserver -dir DBDIR [-addr :7070] [-shards 4] [-arena BYTES]
//	         [-value BYTES] [-cap RECORDS] [-log-streams N]
//	         [-maxconns N] [-idle DUR] [-grace DUR]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	dir := flag.String("dir", "", "database root directory (required)")
	shards := flag.Int("shards", 4, "shard count (fixed for the database's life)")
	arena := flag.Int("arena", 1<<22, "arena bytes per shard")
	value := flag.Int("value", 120, "max value bytes")
	capacity := flag.Int("cap", 4096, "record capacity per shard")
	workers := flag.Int("workers", 0, "scan-pool workers per shard (0 = default)")
	logStreams := flag.Int("log-streams", 0, "WAL streams per shard (0/1 = single system.log)")
	lockTO := flag.Duration("locktimeout", 2*time.Second, "lock-wait timeout")
	maxConns := flag.Int("maxconns", 64, "max concurrent connections")
	idle := flag.Duration("idle", 5*time.Minute, "per-connection idle timeout")
	grace := flag.Duration("grace", 10*time.Second, "drain grace on shutdown")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "dbserver: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	router, report, err := shard.Open(shard.Config{
		Dir:         *dir,
		Shards:      *shards,
		ArenaSize:   *arena,
		ValueSize:   *value,
		Capacity:    *capacity,
		Workers:     *workers,
		LogStreams:  *logStreams,
		LockTimeout: *lockTO,
	})
	if err != nil {
		log.Fatalf("dbserver: open: %v", err)
	}
	switch {
	case report.Fresh:
		log.Printf("dbserver: created fresh database, %d shards, %d B arena each", *shards, *arena)
	default:
		log.Printf("dbserver: recovered %d shards (in-doubt resolved: %d committed, %d aborted)",
			*shards, report.InDoubtCommitted, report.InDoubtAborted)
	}

	srv := wire.NewServer(router, wire.ServerConfig{
		MaxConns:    *maxConns,
		IdleTimeout: *idle,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		router.Close()
		log.Fatalf("dbserver: listen: %v", err)
	}
	log.Printf("dbserver: listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		router.Close()
		log.Fatalf("dbserver: serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("dbserver: draining (grace %v)", *grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("dbserver: forced shutdown: %v", err)
	}
	<-serveErr

	snap := router.Metrics()["router"]
	log.Printf("dbserver: served %d txns (%d fastpath, %d cross-shard)",
		snap.Counter(obs.NameShardTxns),
		snap.Counter(obs.NameShardFastpathCommits),
		snap.Counter(obs.NameShardCrossCommits))
	if err := router.CloseClean(); err != nil {
		log.Fatalf("dbserver: clean close: %v", err)
	}
	log.Printf("dbserver: all shards checkpointed, audited, closed")
}
