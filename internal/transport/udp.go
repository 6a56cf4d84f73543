package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dataflasks/internal/metrics"
)

// DefaultMaxDatagram caps one control-plane frame per datagram. 8 KiB
// holds every routine control message — shuffles are a dozen
// descriptors, swap/aggregation messages are a few words, and a repair
// opener of 256 range fingerprints is 2 KB — while staying far from
// the 64 KiB UDP ceiling and its fragmentation pathologies. Oversize
// frames bounce to the stream path (ErrOversize + FallbackSender).
const DefaultMaxDatagram = 8 << 10

// maxUDPRead sizes the receive buffer at the UDP payload ceiling, so a
// peer configured with a larger cap is still readable.
const maxUDPRead = 64 << 10

// Probe datagrams prove a peer's datagram path before any control
// frame trusts it. Not every peer listens on UDP — the flag is
// per-node, so a mixed deployment is normal — and a datagram sent to a
// TCP-only peer vanishes without an error, which would silently
// blackhole the control plane (the first PSS shuffle to such a seed
// would be lost and membership would never form). So an unproven peer
// costs one 9-byte probe and an ErrNoDatagramPath (FallbackSender then
// rides TCP); only after the peer's ack does control traffic switch to
// datagrams. Probe frames lead with bytes no codec version uses.
const (
	probeByte    byte = 0xFF
	probeAckByte byte = 0xFE
	probeLen          = 9 // type byte + sender id
)

// DefaultProveTTL bounds how long a probe ack is trusted. A peer that
// restarts without its UDP listener stops acking, so its path expires
// and traffic settles back on TCP within one TTL.
const DefaultProveTTL = 30 * time.Second

// probeInterval rate-limits probes per peer, so a TCP-only peer is
// poked at most once a second rather than once per control message.
const probeInterval = time.Second

// UDPConfig tunes the datagram fabric.
type UDPConfig struct {
	// Codec frames datagrams (required): one frame per datagram.
	Codec WireCodec
	// Resolve maps a node id to its dialable "host:port" (required —
	// typically TCPNetwork.PeerAddr, since the datagram listener binds
	// the same port by convention).
	Resolve func(NodeID) (string, bool)
	// MaxDatagram caps the encoded frame size (default
	// DefaultMaxDatagram).
	MaxDatagram int
	// Stats receives datagram accounting; nil allocates a private
	// instance.
	Stats *metrics.WireStats
	// ProveTTL bounds how long a peer's probe ack keeps its datagram
	// path trusted (default DefaultProveTTL).
	ProveTTL time.Duration
}

// UDPTransport is the epidemic control plane's fast path: one frame
// per datagram, no connection setup, no head-of-line blocking, and no
// delivery guarantee — which is exactly the contract PSS shuffles,
// slicing swaps, aggregation and anti-entropy digests are built for.
// By convention it binds the same port as the node's TCP listener, so
// the overlay's learned TCP addresses double as datagram addresses and
// no extra discovery is needed.
type UDPTransport struct {
	self    NodeID
	conn    *net.UDPConn
	codec   WireCodec
	resolve func(NodeID) (string, bool)
	maxSize int
	wstats  *metrics.WireStats
	handler func(Envelope)

	proveTTL time.Duration

	mu      sync.Mutex
	scratch []byte
	// dests caches resolved datagram addresses per peer, invalidated
	// when the resolver's answer changes (a restarted peer).
	dests map[NodeID]*udpDest
	// proven records when each peer last proved its datagram path
	// (probe ack or any decoded datagram); lastProbe rate-limits the
	// probes sent while a path is unproven.
	proven    map[NodeID]time.Time
	lastProbe map[NodeID]time.Time

	wg     sync.WaitGroup
	closed atomic.Bool

	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

type udpDest struct {
	raw  string
	addr *net.UDPAddr
}

var _ Fabric = (*UDPTransport)(nil)

// ListenUDP binds the datagram fabric on bind ("host:port"; by
// convention the same port as the TCP listener). handler receives
// every decoded envelope on the read goroutine; it must be safe for
// concurrent use.
func ListenUDP(self NodeID, bind string, cfg UDPConfig, handler func(Envelope)) (*UDPTransport, error) {
	if handler == nil {
		return nil, errors.New("transport: ListenUDP requires a handler")
	}
	if cfg.Codec == nil {
		return nil, errors.New("transport: ListenUDP requires a codec")
	}
	if cfg.Resolve == nil {
		return nil, errors.New("transport: ListenUDP requires a resolver")
	}
	laddr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: udp %s: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: udp listen %s: %w", bind, err)
	}
	if cfg.MaxDatagram <= 0 {
		cfg.MaxDatagram = DefaultMaxDatagram
	}
	if cfg.Stats == nil {
		cfg.Stats = &metrics.WireStats{}
	}
	if cfg.ProveTTL <= 0 {
		cfg.ProveTTL = DefaultProveTTL
	}
	u := &UDPTransport{
		self:      self,
		conn:      conn,
		codec:     cfg.Codec,
		resolve:   cfg.Resolve,
		maxSize:   cfg.MaxDatagram,
		wstats:    cfg.Stats,
		handler:   handler,
		proveTTL:  cfg.ProveTTL,
		dests:     make(map[NodeID]*udpDest),
		proven:    make(map[NodeID]time.Time),
		lastProbe: make(map[NodeID]time.Time),
	}
	u.wg.Add(1)
	go u.readLoop()
	return u, nil
}

// Addr returns the bound datagram address.
func (u *UDPTransport) Addr() string { return u.conn.LocalAddr().String() }

// Sender returns the fabric's sender for the local node.
func (u *UDPTransport) Sender() Sender { return BindSender(u, u.self) }

// Stats returns delivery counters. Delivered counts decoded inbound
// datagrams — UDP gives no send-side delivery signal.
func (u *UDPTransport) Stats() Stats {
	return Stats{Sent: u.sent.Load(), Delivered: u.delivered.Load(), Dropped: u.dropped.Load()}
}

// Close stops the read loop and releases the socket.
func (u *UDPTransport) Close() error {
	if !u.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := u.conn.Close()
	u.wg.Wait()
	return err
}

// Send implements Fabric: one best-effort datagram, no retransmit. A
// frame over the size cap returns ErrOversize, and a peer that has not
// proved its datagram path (see probeByte) returns ErrNoDatagramPath;
// both make FallbackSender route the message over the stream fabric
// instead.
func (u *UDPTransport) Send(ctx context.Context, to NodeID, env Envelope) error {
	u.sent.Add(1)
	if u.closed.Load() {
		u.dropped.Add(1)
		u.wstats.UDPDropped.Inc()
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		u.dropped.Add(1)
		u.wstats.UDPDropped.Inc()
		return err
	}
	dest, err := u.destFor(to)
	if err != nil {
		u.dropped.Add(1)
		u.wstats.UDPDropped.Inc()
		return err
	}
	if !u.pathProven(to) {
		u.probe(to, dest)
		u.dropped.Add(1)
		return fmt.Errorf("%w: peer %v has not acked a probe", ErrNoDatagramPath, to)
	}
	wenv := WireEnvelope{From: env.From, FromAddr: "", To: to, Msg: env.Msg}

	u.mu.Lock()
	buf, err := u.codec.Encode(u.scratch[:0], &wenv)
	if err == nil {
		u.scratch = buf
		if len(buf) > u.maxSize {
			u.mu.Unlock()
			u.dropped.Add(1)
			u.wstats.UDPOversize.Inc()
			return fmt.Errorf("%w: %d > %d bytes", ErrOversize, len(buf), u.maxSize)
		}
		u.wstats.EncodeBytes.Add(uint64(len(buf)))
		_, err = u.conn.WriteToUDP(buf, dest)
	}
	u.mu.Unlock()
	if err != nil {
		u.dropped.Add(1)
		u.wstats.UDPDropped.Inc()
		return fmt.Errorf("%w: %v", ErrDropped, err)
	}
	u.wstats.UDPSent.Inc()
	return nil
}

// destFor resolves and caches the datagram address for a peer.
func (u *UDPTransport) destFor(to NodeID) (*net.UDPAddr, error) {
	raw, ok := u.resolve(to)
	if !ok || raw == "" {
		return nil, ErrUnknownPeer
	}
	u.mu.Lock()
	if d, ok := u.dests[to]; ok && d.raw == raw {
		u.mu.Unlock()
		return d.addr, nil
	}
	u.mu.Unlock()
	addr, err := net.ResolveUDPAddr("udp", raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownPeer, err)
	}
	u.mu.Lock()
	u.dests[to] = &udpDest{raw: raw, addr: addr}
	u.mu.Unlock()
	return addr, nil
}

// pathProven reports whether to has acked a probe (or sent us any
// datagram) within the prove TTL.
func (u *UDPTransport) pathProven(to NodeID) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	t, ok := u.proven[to]
	return ok && time.Since(t) < u.proveTTL
}

// markProven records fresh evidence that id's datagram path works.
func (u *UDPTransport) markProven(id NodeID) {
	u.mu.Lock()
	u.proven[id] = time.Now()
	u.mu.Unlock()
}

// probe pokes an unproven peer with a 9-byte probe datagram, at most
// once per probeInterval. A listening peer acks (see readLoop) and the
// path flips to proven; a TCP-only peer ignores it forever.
func (u *UDPTransport) probe(to NodeID, dest *net.UDPAddr) {
	u.mu.Lock()
	if time.Since(u.lastProbe[to]) < probeInterval {
		u.mu.Unlock()
		return
	}
	u.lastProbe[to] = time.Now()
	u.mu.Unlock()
	frame := probeFrame(probeByte, u.self)
	_, _ = u.conn.WriteToUDP(frame[:], dest)
}

func probeFrame(kind byte, id NodeID) [probeLen]byte {
	var frame [probeLen]byte
	frame[0] = kind
	binary.LittleEndian.PutUint64(frame[1:], uint64(id))
	return frame
}

// readLoop decodes one frame per datagram. Truncated, corrupt or
// unknown-version datagrams are dropped silently (counted): the
// control plane is built for loss. Probe datagrams are answered and
// both probe directions mark the sender's path proven — the reply goes
// to the datagram's source address, which by the same-port convention
// is the peer's listener.
func (u *UDPTransport) readLoop() {
	defer u.wg.Done()
	buf := make([]byte, maxUDPRead)
	for {
		n, src, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if u.closed.Load() {
			return
		}
		if n == probeLen && (buf[0] == probeByte || buf[0] == probeAckByte) {
			from := NodeID(binary.LittleEndian.Uint64(buf[1:probeLen]))
			if from != 0 && from != u.self {
				u.markProven(from)
				if buf[0] == probeByte {
					ack := probeFrame(probeAckByte, u.self)
					_, _ = u.conn.WriteToUDP(ack[:], src)
				}
			}
			continue
		}
		env, err := u.codec.Decode(buf[:n])
		if err != nil {
			u.dropped.Add(1)
			u.wstats.UDPDropped.Inc()
			continue
		}
		u.markProven(env.From)
		u.delivered.Add(1)
		u.handler(Envelope{From: env.From, To: env.To, Msg: env.Msg})
	}
}
