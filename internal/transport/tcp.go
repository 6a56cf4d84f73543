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

// bufKeep bounds the buffers a connection keeps between frames (the
// read loop's frame, a stream's write scratch): one that grew past it is
// dropped after use, so one large frame or held turn does not pin its
// size for the life of the connection.
const bufKeep = 1 << 20

// keepBuf returns buf emptied for reuse, or nil once it grew past
// bufKeep.
func keepBuf(buf []byte) []byte {
	if cap(buf) > bufKeep {
		return nil
	}
	return buf[:0]
}

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
//
// A fabric whose every Send comes from one goroutine (a client's) can
// also hold: between Hold and Flush, Send encodes each frame onto its
// stream and Flush writes each stream's frames with one Write.
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
	writes    atomic.Uint64

	// holding and held are the hold state: held lists the streams with
	// frames kept since Hold, in the order of their first. Only the one
	// goroutine that sends touches them, so they are unsynchronized.
	holding bool
	held    []heldStream
}

// heldStream is a stream with frames awaiting Flush, and the peer it
// leads to.
type heldStream struct {
	to NodeID
	c  *tcpConn
}

var (
	_ AddressBook = (*TCPNetwork)(nil)
	_ Fabric      = (*TCPNetwork)(nil)
)

// tcpConn is one outbound stream.
type tcpConn struct {
	mu      sync.Mutex
	conn    net.Conn
	scratch []byte // [len prefix][frame]... not yet written, reused
	frames  uint64 // frames encoded so far
	pending int    // frames in scratch awaiting Flush
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
	return Stats{Sent: t.sent.Load(), Delivered: t.delivered.Load(), Dropped: t.dropped.Load(), Writes: t.writes.Load()}
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
	if t.holding {
		return t.hold(to, c, &wenv)
	}
	c.mu.Lock()
	err = t.encode(c, &wenv)
	if err == nil {
		err = t.write(c)
	}
	c.mu.Unlock()
	if err != nil {
		t.dropConn(to, c)
		t.dropped.Add(1)
		return fmt.Errorf("%w: %v", ErrDropped, err)
	}
	t.delivered.Add(1)
	return nil
}

// Hold starts keeping what Send encodes: each frame waits on its stream
// until Flush writes the stream's frames with one Write. Only for a
// fabric whose every Send comes from the goroutine that calls Hold and
// Flush; a node's fabric, sent on by its shards and control loop, never
// holds.
func (t *TCPNetwork) Hold() { t.holding = true }

// hold encodes env onto c's scratch, behind the frames already kept
// there. A frame the codec refuses is dropped alone.
func (t *TCPNetwork) hold(to NodeID, c *tcpConn, env *WireEnvelope) error {
	c.mu.Lock()
	err := t.encode(c, env)
	if err == nil {
		c.pending++
		if c.pending == 1 {
			t.held = append(t.held, heldStream{to: to, c: c})
		}
	}
	c.mu.Unlock()
	if err != nil {
		t.dropped.Add(1)
		return fmt.Errorf("%w: %v", ErrDropped, err)
	}
	return nil
}

// Flush writes the frames kept since Hold, each stream's with one Write,
// and ends the hold. A stream whose write fails has its frames counted
// dropped and is torn down, so the next Send redials; a ctx already done
// fails every stream that way, unwritten. It returns the first error.
func (t *TCPNetwork) Flush(ctx context.Context) error {
	t.holding = false
	var first error
	for _, h := range t.held {
		h.c.mu.Lock()
		n := h.c.pending
		h.c.pending = 0
		err := ctx.Err()
		if err == nil {
			err = t.write(h.c)
		} else {
			h.c.scratch = keepBuf(h.c.scratch)
		}
		h.c.mu.Unlock()
		if err != nil {
			t.dropConn(h.to, h.c)
			t.dropped.Add(uint64(n))
			if first == nil {
				first = fmt.Errorf("%w: %v", ErrDropped, err)
			}
			continue
		}
		t.delivered.Add(uint64(n))
	}
	clear(t.held)
	t.held = t.held[:0]
	return first
}

// encode appends env to c's scratch as [length prefix][frame], announcing
// the fabric's address on the stream's first and every announceEvery-th
// frame, and counts the frame's bytes. Steady-state encoding allocates
// nothing. c.mu must be held.
func (t *TCPNetwork) encode(c *tcpConn, env *WireEnvelope) error {
	if c.frames%announceEvery == 0 {
		env.FromAddr = t.addr
	}
	start := len(c.scratch)
	buf, err := t.codec.Encode(append(c.scratch, 0, 0, 0, 0), env)
	if err != nil {
		return err
	}
	c.frames++
	c.scratch = buf
	frame := len(buf) - start - 4
	binary.BigEndian.PutUint32(buf[start:], uint32(frame))
	t.encoded.Add(uint64(frame))
	return nil
}

// write emits c's scratch with one Write and empties it. The deadline
// bounds a peer that accepts but never reads: once its socket buffers
// fill, the write fails instead of parking the caller (the node's
// control loop, a shard, a client's loop) until Close. c.mu must be
// held.
func (t *TCPNetwork) write(c *tcpConn) error {
	buf := c.scratch
	c.scratch = keepBuf(buf)
	if err := c.conn.SetWriteDeadline(time.Now().Add(t.dialTime)); err != nil {
		return err
	}
	t.writes.Add(1)
	_, err := c.conn.Write(buf)
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

// pacedAfter is how many frames in a row a stream must deliver Last
// before its next Last frame is marked Paced: a sender that has written
// one frame at a time that long writes a frame and waits for its answer.
// One frame that arrives with another behind it starts the count again.
const pacedAfter = 64

// inbound is one connection's read state, owned by its read loop: the
// reader, the buffer frames are read into, and how many frames in a row
// arrived alone (Last).
type inbound struct {
	br    *bufio.Reader
	frame []byte
	alone int
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
	in := inbound{br: bufio.NewReader(conn)}
	for t.readFrame(&in) {
	}
}

// readFrame reads one frame into in's buffer — which it drops once it
// grew past bufKeep — decodes it and delivers it, marked Last when the
// reader holds no further frame and Paced when it is Last and more than
// pacedAfter frames before it arrived alone too. It returns false when
// the stream is done with.
func (t *TCPNetwork) readFrame(in *inbound) bool {
	var lenBuf [4]byte
	if _, err := io.ReadFull(in.br, lenBuf[:]); err != nil {
		return false
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxTCPFrame {
		return false
	}
	if cap(in.frame) < int(n) {
		in.frame = make([]byte, n)
	}
	frame := in.frame[:n]
	if _, err := io.ReadFull(in.br, frame); err != nil {
		return false
	}
	env, err := t.codec.Decode(frame)
	if err != nil {
		return false
	}
	in.frame = keepBuf(in.frame)
	last := in.br.Buffered() == 0
	if last {
		in.alone++
	} else {
		in.alone = 0
	}
	return t.deliver(env, int(n), last, in.alone > pacedAfter)
}

// deliver hands one decoded envelope of a frame of the given length to
// the node with the read loop's marks (Envelope.Last, Envelope.Paced);
// it reports false when the fabric is shutting down.
func (t *TCPNetwork) deliver(env *WireEnvelope, bytes int, last, paced bool) bool {
	if t.closed.Load() {
		return false
	}
	if env.FromAddr != "" {
		t.Learn(env.From, env.FromAddr)
	}
	t.handler(Envelope{From: env.From, To: env.To, Msg: env.Msg, Bytes: bytes, Last: last, Paced: paced})
	return true
}
