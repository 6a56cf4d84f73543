package resp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dataflasks"
	"dataflasks/internal/metrics"
)

// Backend is the slice of the dataflasks.Client surface the gateway
// dispatches through. *dataflasks.Client implements it; tests may
// substitute an in-process cluster client.
type Backend interface {
	PutAsync(key string, version uint64, value []byte, opts ...dataflasks.OpOption) *dataflasks.Op
	GetLatestAsync(key string, opts ...dataflasks.OpOption) *dataflasks.Op
	PutBatchAsync(objs []dataflasks.Object, opts ...dataflasks.OpOption) []*dataflasks.Op
	DeleteBatchAsync(items []dataflasks.KeyVersion, opts ...dataflasks.OpOption) []*dataflasks.Op
	Pending() int
	DirectoryStats() dataflasks.DirectoryStats
}

var _ Backend = (*dataflasks.Client)(nil)

// ErrServerClosed reports an operation abandoned because the gateway
// shut down.
var ErrServerClosed = errors.New("resp: server closed")

// Config tunes the gateway.
type Config struct {
	// MaxInflight bounds the pipelined commands outstanding per
	// connection (decoded but not yet answered). When the queue is
	// full the reader stops consuming the socket, which backpressures
	// the client through TCP (default 128).
	MaxInflight int
	// ReadTimeout is the per-connection idle limit: a connection that
	// sends no command for this long is closed (default 5m).
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply flush (default 1m).
	WriteTimeout time.Duration
	// GetTimeout bounds each attempt of a read (GET/MGET/EXISTS).
	// Epidemic reads have no authoritative negative, so a missing key
	// costs the full attempt budget before the gateway answers null —
	// this knob is that latency (default 2s).
	GetTimeout time.Duration
	// GetRetries is how many fresh attempts follow a timed-out read
	// (default 1).
	GetRetries int
	// Version mints the version number a SET stores under. The default
	// source is a process-wide monotonic wall clock (UnixNano,
	// strictly increasing), giving last-writer-wins across gateway
	// connections — the version-ordering contract DataFlasks expects
	// its upper layer to provide.
	Version func() uint64
	// Stats receives per-command call counters and latency histograms
	// (latency measured decode → reply written, so it includes queue
	// wait). Optional; nil disables accounting.
	Stats *metrics.CommandStats
	// Logf logs accept/serve errors (optional).
	Logf func(format string, args ...interface{})
}

func (c *Config) defaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 128
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = time.Minute
	}
	if c.GetTimeout <= 0 {
		c.GetTimeout = 2 * time.Second
	}
	if c.GetRetries < 0 {
		c.GetRetries = 0
	} else if c.GetRetries == 0 {
		c.GetRetries = 1
	}
	if c.Version == nil {
		c.Version = globalVersions.next
	}
}

// versionSource mints strictly increasing versions anchored to the
// wall clock, shared by every connection of the process.
type versionSource struct {
	last atomic.Uint64
}

var globalVersions versionSource

func (v *versionSource) next() uint64 {
	for {
		now := uint64(time.Now().UnixNano())
		last := v.last.Load()
		if now <= last {
			now = last + 1
		}
		if v.last.CompareAndSwap(last, now) {
			return now
		}
	}
}

// Server is the RESP gateway: one TCP listener whose connections all
// dispatch through one shared DataFlasks client. Its lifecycle is
// Listen → (serving) → Close.
type Server struct {
	cfg     Config
	backend Backend

	ln   net.Listener
	done chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	closeOnce sync.Once
}

// NewServer creates a gateway over backend.
func NewServer(backend Backend, cfg Config) *Server {
	if backend == nil {
		panic("resp: NewServer requires a backend")
	}
	cfg.defaults()
	return &Server{
		cfg:     cfg,
		backend: backend,
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Listen binds addr (host:port, port 0 allowed) and starts accepting
// connections in the background. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("resp: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// Addr returns the bound address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Conns returns the number of live connections.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops the listener, severs every connection and waits for the
// per-connection goroutines. In-flight backend operations are
// abandoned (their replies are never written).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		if s.ln != nil {
			_ = s.ln.Close()
		}
		s.mu.Lock()
		for nc := range s.conns {
			_ = nc.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	// Transient accept failures (EMFILE under fd pressure, aborted
	// handshakes) must not kill the gateway for the daemon's lifetime;
	// back off and retry, like net/http.Server does.
	backoff := 5 * time.Millisecond
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.logf("resp: accept: %v (retrying in %s)", err, backoff)
			select {
			case <-time.After(backoff):
			case <-s.done:
				return
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		s.mu.Lock()
		s.conns[nc] = struct{}{}
		// Close severs every conn registered when it takes the lock; a
		// conn accepted concurrently would otherwise be missed and pin
		// Close until its read deadline. Registering first and then
		// checking done under the same lock closes the window: either
		// Close sees the conn in the map, or this sees done closed.
		closing := false
		select {
		case <-s.done:
			closing = true
			delete(s.conns, nc)
		default:
		}
		s.mu.Unlock()
		if closing {
			_ = nc.Close()
			return
		}
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

// reply produces one command's wire bytes. It runs on the connection's
// writer goroutine, in decode order, and may block waiting on backend
// futures — that wait is what keeps pipelined replies in request
// order while the operations themselves overlap. errReply reports
// whether an error reply was written (per-command error accounting);
// err is an I/O failure on the connection.
type reply func(w *Writer) (errReply bool, err error)

// pendingReply carries a queued reply and its accounting context.
type pendingReply struct {
	write reply
	stat  *metrics.CommandStat
	start time.Time
}

// serveConn runs one connection: this goroutine decodes and dispatches
// commands; a companion writer goroutine drains the in-order queue.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		_ = nc.Close()
	}()

	c := &conn{
		s:       s,
		nc:      nc,
		r:       NewReader(nc),
		pending: make(chan pendingReply, s.cfg.MaxInflight),
	}

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c.writeLoop()
	}()

	c.readLoop()
	close(c.pending)
	writerWG.Wait()
}

// conn is one RESP connection's state.
type conn struct {
	s  *Server
	nc net.Conn
	r  *Reader

	// pending is the in-order completion queue. Its capacity is the
	// max-inflight backpressure bound.
	pending chan pendingReply

	// quit makes the reader stop after the current command's reply is
	// queued (QUIT, protocol error).
	quit bool
}

// enqueue queues one reply for the writer, blocking when MaxInflight
// commands are outstanding (the backpressure path). A failure means
// the server is shutting down; the reader stops.
func (c *conn) enqueue(pr pendingReply) {
	select {
	case c.pending <- pr:
	case <-c.s.done:
		c.quit = true
	}
}

// readLoop decodes commands until EOF, error or QUIT.
func (c *conn) readLoop() {
	for !c.quit {
		_ = c.nc.SetReadDeadline(time.Now().Add(c.s.cfg.ReadTimeout))
		args, err := c.r.ReadCommand()
		if err != nil {
			var perr ProtocolError
			if errors.As(err, &perr) {
				// Answer like Redis: one -ERR reply, then sever.
				msg := "ERR " + perr.Error()
				c.enqueue(pendingReply{write: func(w *Writer) (bool, error) {
					return true, w.Error(msg)
				}})
			} else if !isClosing(err) {
				c.s.logf("resp: read %s: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		c.dispatch(args)
	}
}

// writeLoop drains the pending queue in order, waiting each reply's
// backend futures out, and flushes when the queue momentarily empties —
// one flush per pipeline burst instead of one per reply.
func (c *conn) writeLoop() {
	w := NewWriter(c.nc)
	for pr := range c.pending {
		// A fresh deadline per reply: replies larger than the buffer
		// flush implicitly inside write, and must not run against a
		// stale (possibly expired) deadline from an earlier burst —
		// nor against none at all, which would let a client that stops
		// reading pin this goroutine forever.
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
		errReply, err := pr.write(w)
		if pr.stat != nil {
			pr.stat.Observe(time.Since(pr.start), errReply)
		}
		if err == nil && len(c.pending) == 0 && w.Buffered() > 0 {
			err = w.Flush()
		}
		if err != nil {
			if !isClosing(err) {
				c.s.logf("resp: write %s: %v", c.nc.RemoteAddr(), err)
			}
			// Sever the socket first so the reader unblocks, closes the
			// queue, and the drain below terminates.
			_ = c.nc.Close()
			for range c.pending {
			}
			return
		}
	}
	_ = c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
	_ = w.Flush()
}

// waitOp blocks until op completes or the server closes. w, when the
// op is still pending, is flushed first: bytes already produced —
// earlier replies in the pipeline, or this reply's own prefix (an
// MGET's hits before a miss) — must not sit buffered while this wait
// runs. The write deadline was set by writeLoop at reply start.
func (c *conn) waitOp(w *Writer, op *dataflasks.Op) error {
	select {
	case <-op.Done():
		return op.Err()
	default:
	}
	if w.Buffered() > 0 {
		if err := w.Flush(); err != nil {
			op.Cancel()
			return err
		}
	}
	select {
	case <-op.Done():
		return op.Err()
	case <-c.s.done:
		op.Cancel()
		return ErrServerClosed
	}
}

// isClosing reports errors expected while a connection or the server
// winds down.
func isClosing(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.EOF)
}
