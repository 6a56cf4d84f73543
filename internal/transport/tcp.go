package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dataflasks/internal/metrics"
)

// maxTCPFrame caps a framed message so a corrupt or hostile length
// prefix cannot balloon memory. Pushes and batches stay well under it.
const maxTCPFrame = 64 << 20

// TCPConfig tunes a TCP fabric beyond the required listen parameters.
type TCPConfig struct {
	// Codec encodes outbound frames and decodes inbound ones (required).
	Codec WireCodec
	// EncodeBytes, when set, counts the frame bytes the fabric encodes
	// (Stats() reports delivery counts either way).
	EncodeBytes *metrics.SharedCounter
	// DialTimeout bounds outbound connection attempts and each frame
	// write (default 3s).
	DialTimeout time.Duration
}

// TCPNetwork is the real-deployment fabric: one persistent outbound
// stream per peer, lazily dialed through an address directory that the
// overlay itself populates (PSS descriptors carry addresses; see
// AddressBook). Every stream, in both directions, is a sequence of
// [u32 big-endian length][codec frame]; anything else closes the
// connection. Inbound connections are decoded by per-connection
// goroutines and handed to the node's handler.
//
// Sends are best-effort, matching the epidemic model: a failed dial or
// write (including a peer that stops reading for DialTimeout) drops the
// message and tears the connection down; gossip redundancy covers the
// loss.
type TCPNetwork struct {
	self     NodeID
	addr     string // advertised address
	ln       net.Listener
	handler  func(Envelope)
	codec    WireCodec
	encoded  *metrics.SharedCounter
	dialTime time.Duration

	mu    sync.RWMutex
	peers map[NodeID]string
	conns map[NodeID]*tcpConn
	// all tracks every live net.Conn (inbound and outbound) so Close
	// can unblock their reader goroutines.
	all map[net.Conn]struct{}

	wg     sync.WaitGroup
	closed atomic.Bool

	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

var (
	_ AddressBook = (*TCPNetwork)(nil)
	_ Fabric      = (*TCPNetwork)(nil)
)

// tcpConn is one outbound stream.
type tcpConn struct {
	mu      sync.Mutex
	conn    net.Conn
	scratch []byte // reused [len prefix][frame] buffer
	frames  uint64 // frames written so far
}

// announceEvery is how often a stream repeats the sender's dialable
// address: on its first frame, which is how the receiver learns whom to
// answer, and on every announceEvery-th after it, so a receiver whose
// directory entry was since overwritten by a stale PSS descriptor heals.
// The frames between carry an empty FromAddr, which deliver skips.
const announceEvery = 256

// ListenTCP binds the fabric. bind is the listen address ("host:port",
// port 0 allowed); advertise is the address peers should dial (empty =
// the bound address). handler receives every decoded envelope on
// per-connection goroutines; it must be safe for concurrent use (the
// node runtime funnels into a mailbox).
func ListenTCP(self NodeID, bind, advertise string, cfg TCPConfig, handler func(Envelope)) (*TCPNetwork, error) {
	if handler == nil {
		return nil, errors.New("transport: ListenTCP requires a handler")
	}
	if cfg.Codec == nil {
		return nil, errors.New("transport: ListenTCP requires a codec")
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", bind, err)
	}
	if advertise == "" {
		advertise = ln.Addr().String()
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.EncodeBytes == nil {
		cfg.EncodeBytes = &metrics.SharedCounter{}
	}
	t := &TCPNetwork{
		self:     self,
		addr:     advertise,
		ln:       ln,
		handler:  handler,
		codec:    cfg.Codec,
		encoded:  cfg.EncodeBytes,
		dialTime: cfg.DialTimeout,
		peers:    make(map[NodeID]string),
		conns:    make(map[NodeID]*tcpConn),
		all:      make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the advertised address.
func (t *TCPNetwork) Addr() string { return t.addr }

// BoundAddr returns the listener's actual bound address (which differs
// from Addr when advertising a public name or when bound to port 0).
func (t *TCPNetwork) BoundAddr() string { return t.ln.Addr().String() }

// Learn implements AddressBook.
func (t *TCPNetwork) Learn(id NodeID, addr string) {
	if id == t.self || addr == "" {
		return
	}
	// Every inbound frame re-teaches its sender's address; the read lock
	// settles the usual case (nothing changed) without serialising the
	// read loops against each other and against connTo.
	t.mu.RLock()
	known := t.peers[id] == addr
	t.mu.RUnlock()
	if known {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.peers[id] != addr {
		t.peers[id] = addr
		// The old connection (if any) points at a stale address.
		if c, ok := t.conns[id]; ok {
			delete(t.conns, id)
			_ = c.conn.Close()
		}
	}
}

// PeerCount returns the directory size.
func (t *TCPNetwork) PeerCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.peers)
}

// Stats returns delivery counters.
func (t *TCPNetwork) Stats() Stats {
	return Stats{Sent: t.sent.Load(), Delivered: t.delivered.Load(), Dropped: t.dropped.Load()}
}

// Sender returns the fabric's sender for the local node.
func (t *TCPNetwork) Sender() Sender { return BindSender(t, t.self) }

// Close stops the listener and all connections and waits for the
// reader goroutines.
func (t *TCPNetwork) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := t.ln.Close()
	t.mu.Lock()
	for id := range t.conns {
		delete(t.conns, id)
	}
	for conn := range t.all {
		delete(t.all, conn)
		_ = conn.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}

// track registers a live connection; it reports false when the fabric
// is already closed (the caller must close the conn itself).
func (t *TCPNetwork) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return false
	}
	t.all[conn] = struct{}{}
	return true
}

func (t *TCPNetwork) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.all, conn)
	t.mu.Unlock()
}

// Send implements Fabric.
func (t *TCPNetwork) Send(ctx context.Context, to NodeID, env Envelope) error {
	t.sent.Add(1)
	if t.closed.Load() {
		t.dropped.Add(1)
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		t.dropped.Add(1)
		return err
	}
	c, err := t.connTo(ctx, to)
	if err != nil {
		t.dropped.Add(1)
		return err
	}
	wenv := WireEnvelope{From: env.From, To: to, Msg: env.Msg}
	if err := t.write(c, &wenv); err != nil {
		t.dropConn(to, c)
		t.dropped.Add(1)
		return fmt.Errorf("%w: %v", ErrDropped, err)
	}
	t.delivered.Add(1)
	return nil
}

// write emits one envelope as [length prefix][frame], encoded into the
// reused scratch so steady-state sends allocate nothing, announcing the
// fabric's address on the stream's first and every announceEvery-th
// frame. The deadline
// bounds a peer that accepts but never reads: once its socket buffers
// fill, the write fails instead of parking the caller (the node's
// control loop or a shard) until Close.
func (t *TCPNetwork) write(c *tcpConn, env *WireEnvelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frames%announceEvery == 0 {
		env.FromAddr = t.addr
	}
	c.frames++
	buf := append(c.scratch[:0], 0, 0, 0, 0)
	buf, err := t.codec.Encode(buf, env)
	if err != nil {
		return err
	}
	c.scratch = buf
	frame := len(buf) - 4
	binary.BigEndian.PutUint32(buf[:4], uint32(frame))
	t.encoded.Add(uint64(frame))
	if err := c.conn.SetWriteDeadline(time.Now().Add(t.dialTime)); err != nil {
		return err
	}
	_, err = c.conn.Write(buf)
	return err
}

func (t *TCPNetwork) connTo(ctx context.Context, to NodeID) (*tcpConn, error) {
	t.mu.RLock()
	c, ok := t.conns[to]
	addr := t.peers[to]
	t.mu.RUnlock()
	if ok {
		return c, nil
	}
	if addr == "" {
		return nil, ErrUnknownPeer
	}
	d := net.Dialer{Timeout: t.dialTime}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrPeerDown, addr, err)
	}
	nc := &tcpConn{conn: conn}
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		_ = nc.conn.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[to]; ok {
		// Lost the race; keep the established one.
		t.mu.Unlock()
		_ = nc.conn.Close()
		return existing, nil
	}
	t.conns[to] = nc
	t.all[nc.conn] = struct{}{}
	t.mu.Unlock()

	// Outbound connections are bidirectional: read replies from them.
	t.wg.Add(1)
	go t.readLoop(conn)
	return nc, nil
}

func (t *TCPNetwork) dropConn(id NodeID, c *tcpConn) {
	t.mu.Lock()
	if cur, ok := t.conns[id]; ok && cur == c {
		delete(t.conns, id)
	}
	t.mu.Unlock()
	_ = c.conn.Close()
}

func (t *TCPNetwork) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.track(conn) {
			_ = conn.Close()
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop drains one connection's length-prefixed frames until the
// stream dies, a length prefix is zero or over maxTCPFrame, or a frame
// fails to decode (which is how a peer speaking anything but this
// framing is turned away). Sender addresses are learned
// opportunistically, so answering a brand-new peer works immediately.
// The caller must have wg.Add'ed and track'ed the conn.
func (t *TCPNetwork) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	defer conn.Close()
	br := bufio.NewReader(conn)
	var frame []byte
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxTCPFrame {
			return
		}
		if cap(frame) < int(n) {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		env, err := t.codec.Decode(frame)
		if err != nil {
			return
		}
		if !t.deliver(env, br.Buffered() == 0) {
			return
		}
	}
}

// deliver hands one decoded envelope to the node, marked Last when the
// read loop holds no further frame of its stream; it reports false when
// the fabric is shutting down.
func (t *TCPNetwork) deliver(env *WireEnvelope, last bool) bool {
	if t.closed.Load() {
		return false
	}
	if env.FromAddr != "" {
		t.Learn(env.From, env.FromAddr)
	}
	t.handler(Envelope{From: env.From, To: env.To, Msg: env.Msg, Last: last})
	return true
}
