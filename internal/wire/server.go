package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// ServerConfig tunes the front end.
type ServerConfig struct {
	// MaxConns caps concurrently admitted connections (default 64).
	// Arrivals beyond the cap get an ErrCodeBusy frame and are closed —
	// admission control, not queueing.
	MaxConns int
	// IdleTimeout closes a connection that sends no request for this long
	// (default 5m). It doubles as the transaction-abandonment bound: an
	// idle connection's open transaction is aborted, releasing its locks.
	IdleTimeout time.Duration
}

func (c ServerConfig) normalized() ServerConfig {
	if c.MaxConns == 0 {
		c.MaxConns = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	return c
}

// Server serves the wire protocol over a shard.Router. One goroutine per
// connection; per-connection transactions run under a context canceled
// on forced shutdown, so lock waits and group-commit waits unwind.
type Server struct {
	router *shard.Router
	cfg    ServerConfig

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*serverConn]struct{}
	draining bool

	wg sync.WaitGroup

	gConns     *obs.Gauge
	mConns     *obs.Counter
	mRejected  *obs.Counter
	mRequests  *obs.Counter
	mErrors    *obs.Counter
	hRequestNS *obs.Histogram
}

type serverConn struct {
	net.Conn
	mu      sync.Mutex
	inTxn   bool
	started bool // a request is being served right now
}

// NewServer wraps router. Server metrics register in the router's
// observability registry under server.*.
func NewServer(router *shard.Router, cfg ServerConfig) *Server {
	reg := router.Observability()
	//dbvet:allow ctxflow the server owns its lifetime root; every request context is derived from it and canceled on Close
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		router:     router,
		cfg:        cfg.normalized(),
		baseCtx:    ctx,
		cancel:     cancel,
		conns:      make(map[*serverConn]struct{}),
		gConns:     reg.Gauge(obs.NameServerConns),
		mConns:     reg.Counter(obs.NameServerConnsTotal),
		mRejected:  reg.Counter(obs.NameServerConnsRejected),
		mRequests:  reg.Counter(obs.NameServerRequests),
		mErrors:    reg.Counter(obs.NameServerErrors),
		hRequestNS: reg.Histogram(obs.NameServerRequestNS),
	}
}

// Serve accepts connections on ln until Shutdown (returns nil) or a
// listener failure (returns the error). A Serve that starts after Shutdown
// closes ln and returns nil too: callers run Serve on its own goroutine,
// and a Shutdown that wins the race to the lock is still a shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.admit(conn)
	}
}

// admit applies the connection cap and spawns the handler.
func (s *Server) admit(conn net.Conn) {
	s.mu.Lock()
	if s.draining || len(s.conns) >= s.cfg.MaxConns {
		draining := s.draining
		s.mu.Unlock()
		s.mRejected.Inc()
		code := byte(ErrCodeBusy)
		msg := "connection limit reached"
		if draining {
			code, msg = ErrCodeShutdown, "server draining"
		}
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		_ = WriteFrame(conn, MsgErr, EncodeErr(code, msg))
		conn.Close()
		return
	}
	// Set before the connection is registered, so a Shutdown's wakeup
	// deadline always comes after it.
	conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	sc := &serverConn{Conn: conn}
	s.conns[sc] = struct{}{}
	s.mu.Unlock()
	s.mConns.Inc()
	s.gConns.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.handle(sc)
	}()
}

// handle runs one connection's request loop. Replies are buffered and
// flushed only when the next read could block, so a pipelined batch is
// answered with one write; every exit flushes too, so no buffered refusal
// is lost.
func (s *Server) handle(sc *serverConn) {
	defer func() {
		sc.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
		s.gConns.Add(-1)
	}()

	br := bufio.NewReader(sc)
	bw := bufio.NewWriter(sc)
	defer bw.Flush() // the last replies; the connection closes next either way
	var txn *shard.Txn
	failed := false // a PUT of txn was refused: it may only roll back
	defer func() {
		if txn != nil {
			_ = txn.Abort()
		}
	}()

	for {
		if !frameBuffered(br) {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		typ, payload, err := ReadFrame(br)
		if err != nil {
			// EOF, timeout, drain-wakeup, malformed frame: answer what can
			// be answered, then drop the connection. The deferred abort
			// releases any open transaction's locks.
			switch {
			case errors.Is(err, ErrMalformed) || errors.Is(err, ErrFrameTooLarge):
				s.mErrors.Inc()
				_ = WriteFrame(bw, MsgErr, EncodeErr(ErrCodeBadRequest, err.Error()))
			case errors.Is(err, os.ErrDeadlineExceeded) && s.isDraining():
				// Woken by the drain: a request the client has not sent
				// yet (a deferred BEGIN) reads this refusal, not EOF.
				_ = WriteFrame(bw, MsgErr, EncodeErr(ErrCodeShutdown, "server draining"))
			}
			return
		}
		sc.mu.Lock()
		sc.started = true
		sc.mu.Unlock()

		start := time.Now()
		s.mRequests.Inc()
		req, err := ParseRequest(typ, payload)
		if err != nil {
			s.mErrors.Inc()
			_ = WriteFrame(bw, MsgErr, EncodeErr(ErrCodeBadRequest, err.Error()))
			return
		}
		respErr := s.serveRequest(bw, &txn, &failed, req)
		s.hRequestNS.ObserveDuration(time.Since(start))
		if respErr != nil {
			return
		}

		// The idle deadline is set under sc.mu, before the drain check, so
		// a Shutdown that wakes this connection cannot be overwritten.
		sc.mu.Lock()
		sc.inTxn = txn != nil
		sc.started = false
		sc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		sc.mu.Unlock()

		// A draining server parts with the connection as soon as no
		// transaction is open; the client sees a clean close after its
		// commit/abort response.
		if s.isDraining() && txn == nil {
			return
		}
	}
}

// frameBuffered reports whether br holds a complete frame, so reading it
// cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return binary.LittleEndian.Uint32(hdr) <= uint32(br.Buffered()-4)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// serveRequest executes one request and writes its response. A non-nil
// return closes the connection (the response, if any, was written).
// failed marks a transaction with a refused PUT: a pipelined COMMIT
// behind that PUT must not commit what the client would have aborted.
func (s *Server) serveRequest(bw *bufio.Writer, txn **shard.Txn, failed *bool, req Request) error {
	fail := func(code byte, err error) error {
		s.mErrors.Inc()
		return WriteFrame(bw, MsgErr, EncodeErr(code, err.Error()))
	}
	switch req.Type {
	case MsgPing:
		return WriteFrame(bw, MsgOK, nil)
	case MsgBegin:
		if *txn != nil {
			return fail(ErrCodeTxnState, errors.New("transaction already open on this connection"))
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return fail(ErrCodeShutdown, errors.New("server draining"))
		}
		*txn = s.router.BeginCtx(s.baseCtx)
		*failed = false
		return WriteFrame(bw, MsgOK, nil)
	case MsgGet:
		if *txn == nil {
			return fail(ErrCodeTxnState, errors.New("no open transaction"))
		}
		val, err := (*txn).Get(req.Key)
		if err != nil {
			if errors.Is(err, shard.ErrNotFound) {
				return fail(ErrCodeNotFound, err)
			}
			return fail(ErrCodeGeneric, err)
		}
		return WriteFrame(bw, MsgVal, val)
	case MsgPut:
		if *txn == nil {
			return fail(ErrCodeTxnState, errors.New("no open transaction"))
		}
		if err := (*txn).Put(req.Key, req.Val); err != nil {
			*failed = true
			return fail(ErrCodeGeneric, err)
		}
		return WriteFrame(bw, MsgOK, nil)
	case MsgDelete:
		if *txn == nil {
			return fail(ErrCodeTxnState, errors.New("no open transaction"))
		}
		if err := (*txn).Delete(req.Key); err != nil {
			if errors.Is(err, shard.ErrNotFound) {
				return fail(ErrCodeNotFound, err)
			}
			return fail(ErrCodeGeneric, err)
		}
		return WriteFrame(bw, MsgOK, nil)
	case MsgCommit:
		if *txn == nil {
			return fail(ErrCodeTxnState, errors.New("no open transaction"))
		}
		if *failed {
			err := (*txn).Abort()
			*txn = nil
			return fail(ErrCodeGeneric, errors.Join(errors.New("transaction rolled back: a PUT was refused"), err))
		}
		err := (*txn).Commit()
		*txn = nil
		if err != nil {
			return fail(ErrCodeGeneric, err)
		}
		return WriteFrame(bw, MsgOK, nil)
	case MsgAbort:
		if *txn == nil {
			return fail(ErrCodeTxnState, errors.New("no open transaction"))
		}
		err := (*txn).Abort()
		*txn = nil
		if err != nil {
			return fail(ErrCodeGeneric, err)
		}
		return WriteFrame(bw, MsgOK, nil)
	case MsgMetrics:
		blob, err := json.Marshal(s.router.Metrics())
		if err != nil {
			return fail(ErrCodeGeneric, err)
		}
		if len(blob)+1 > MaxFrameSize {
			return fail(ErrCodeGeneric, fmt.Errorf("metrics snapshot exceeds frame size"))
		}
		return WriteFrame(bw, MsgVal, blob)
	default:
		return fail(ErrCodeBadRequest, fmt.Errorf("unknown request type %#02x", req.Type))
	}
}

// Shutdown drains the server: stop accepting, wake idle connections so
// they close, let connections with open transactions finish until ctx
// expires, then force-close stragglers and cancel their contexts. The
// router is not closed — the caller owns it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	// Wake connections parked in ReadFrame with no transaction open: an
	// immediate read deadline bounces them out, and the drain check in
	// handle() refuses to serve them further.
	for sc := range s.conns {
		sc.mu.Lock()
		if !sc.inTxn && !sc.started {
			sc.SetReadDeadline(time.Now())
		}
		sc.mu.Unlock()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Grace expired: cancel in-flight transactions (unwinds lock and
		// group-commit waits) and sever the connections.
		s.cancel()
		s.mu.Lock()
		for sc := range s.conns {
			sc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
