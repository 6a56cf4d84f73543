package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type tcpTestMsg struct {
	Text string
}

// textCodec is the in-package stand-in for wire.BinaryCodec (package
// wire imports transport): a version byte, two ids, then the text.
type textCodec struct{}

func (textCodec) Encode(buf []byte, env *WireEnvelope) ([]byte, error) {
	buf = append(buf, FrameBinary, byte(env.From), byte(env.To), byte(len(env.FromAddr)))
	buf = append(buf, env.FromAddr...)
	return append(buf, env.Msg.(*tcpTestMsg).Text...), nil
}

func (textCodec) Decode(b []byte) (*WireEnvelope, error) {
	if len(b) < 4 || b[0] != FrameBinary || len(b) < 4+int(b[3]) {
		return nil, errors.New("textCodec: bad frame")
	}
	addr := 4 + int(b[3])
	return &WireEnvelope{From: NodeID(b[1]), To: NodeID(b[2]), FromAddr: string(b[4:addr]),
		Msg: &tcpTestMsg{Text: string(b[addr:])}}, nil
}

var testTCP = TCPConfig{Codec: textCodec{}}

// collector gathers delivered envelopes thread-safely.
type collector struct {
	mu   sync.Mutex
	envs []Envelope
	cond chan struct{}
}

func newCollector() *collector {
	return &collector{cond: make(chan struct{}, 64)}
}

func (c *collector) handler(env Envelope) {
	c.mu.Lock()
	c.envs = append(c.envs, env)
	c.mu.Unlock()
	select {
	case c.cond <- struct{}{}:
	default:
	}
}

func (c *collector) waitFor(t *testing.T, n int, timeout time.Duration) []Envelope {
	t.Helper()
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		if len(c.envs) >= n {
			out := make([]Envelope, len(c.envs))
			copy(out, c.envs)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.cond:
		case <-deadline:
			t.Fatalf("timed out waiting for %d envelopes", n)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	colB := newCollector()
	b, err := ListenTCP(2, "127.0.0.1:0", "", testTCP, colB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	colA := newCollector()
	a, err := ListenTCP(1, "127.0.0.1:0", "", testTCP, colA.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Learn(2, b.Addr())
	if err := a.Sender().Send(context.Background(), 2, &tcpTestMsg{Text: "over the wire"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	envs := colB.waitFor(t, 1, 5*time.Second)
	if envs[0].From != 1 {
		t.Errorf("From = %v", envs[0].From)
	}
	if m, ok := envs[0].Msg.(*tcpTestMsg); !ok || m.Text != "over the wire" {
		t.Errorf("Msg = %#v", envs[0].Msg)
	}

	// B learned A's address from the inbound stream and can reply
	// without ever having been configured.
	if b.PeerCount() != 1 {
		t.Fatalf("b.PeerCount = %d, want 1", b.PeerCount())
	}
	if err := b.Sender().Send(context.Background(), 1, &tcpTestMsg{Text: "right back"}); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	replies := colA.waitFor(t, 1, 5*time.Second)
	if m := replies[0].Msg.(*tcpTestMsg); m.Text != "right back" {
		t.Errorf("reply = %#v", replies[0].Msg)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", "", testTCP, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Sender().Send(context.Background(), 9, &tcpTestMsg{}); err == nil {
		t.Error("send to unknown peer succeeded")
	}
	if a.Stats().Dropped != 1 {
		t.Errorf("stats = %+v", a.Stats())
	}
}

func TestTCPDeadPeer(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", "", testTCP, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Learn(2, "127.0.0.1:1") // nothing listens there
	if err := a.Sender().Send(context.Background(), 2, &tcpTestMsg{}); err == nil {
		t.Error("send to dead peer succeeded")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", "", testTCP, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	a.Learn(2, "127.0.0.1:1")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Sender().Send(context.Background(), 2, &tcpTestMsg{}); err == nil {
		t.Error("send after close succeeded")
	}
	// Idempotent close.
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestTCPLearnReplacesStaleAddress(t *testing.T) {
	colB := newCollector()
	b, err := ListenTCP(2, "127.0.0.1:0", "", testTCP, colB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(1, "127.0.0.1:0", "", testTCP, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Learn(2, "127.0.0.1:1") // stale
	_ = a.Sender().Send(context.Background(), 2, &tcpTestMsg{})
	a.Learn(2, b.Addr()) // corrected by gossip
	if err := a.Sender().Send(context.Background(), 2, &tcpTestMsg{Text: "found you"}); err != nil {
		t.Fatalf("send after re-learn: %v", err)
	}
	colB.waitFor(t, 1, 5*time.Second)
}

func TestTCPConcurrentSends(t *testing.T) {
	colB := newCollector()
	b, err := ListenTCP(2, "127.0.0.1:0", "", testTCP, colB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(1, "127.0.0.1:0", "", testTCP, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Learn(2, b.Addr())

	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/8; j++ {
				_ = a.Sender().Send(context.Background(), 2, &tcpTestMsg{Text: "burst"})
			}
		}()
	}
	wg.Wait()
	colB.waitFor(t, n, 10*time.Second)
}

// TestTCPDeliverConcurrentWithSend hammers the inbound path from several
// goroutines while Send runs: every frame re-teaches its sender's
// address, which in the usual case (nothing changed) is settled under
// the read lock. Under -race this pins that the fast path shares
// nothing unsynchronised with connTo; the final step pins that a
// changed address is still taken.
func TestTCPDeliverConcurrentWithSend(t *testing.T) {
	colB := newCollector()
	b, err := ListenTCP(2, "127.0.0.1:0", "", testTCP, colB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got atomic.Uint64
	a, err := ListenTCP(1, "127.0.0.1:0", "", testTCP, func(Envelope) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Learn(2, b.Addr())

	const readers, frames, sends = 4, 500, 200
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(from NodeID) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if !a.deliver(&WireEnvelope{From: from, FromAddr: "127.0.0.1:9", To: 1, Msg: &tcpTestMsg{}}, 0, true) {
					t.Error("deliver refused a frame on an open fabric")
					return
				}
			}
		}(NodeID(10 + g))
	}
	for i := 0; i < sends; i++ {
		if err := a.Sender().Send(context.Background(), 2, &tcpTestMsg{Text: "meanwhile"}); err != nil {
			t.Fatalf("send %d while frames are delivered: %v", i, err)
		}
	}
	wg.Wait()
	colB.waitFor(t, sends, 10*time.Second)
	if got.Load() != readers*frames {
		t.Fatalf("handler saw %d frames, want %d", got.Load(), readers*frames)
	}
	peerAddr := func(id NodeID) string {
		a.mu.RLock()
		defer a.mu.RUnlock()
		return a.peers[id]
	}
	for g := 0; g < readers; g++ {
		if addr := peerAddr(NodeID(10 + g)); addr != "127.0.0.1:9" {
			t.Fatalf("peer %d learned as %q", 10+g, addr)
		}
	}
	a.deliver(&WireEnvelope{From: 10, FromAddr: "127.0.0.1:10", To: 1, Msg: &tcpTestMsg{}}, 0, true)
	if addr := peerAddr(10); addr != "127.0.0.1:10" {
		t.Fatalf("changed address not taken: peer 10 is %q", addr)
	}
}

func TestListenTCPRequiresCodec(t *testing.T) {
	if n, err := ListenTCP(1, "127.0.0.1:0", "", TCPConfig{}, func(Envelope) {}); err == nil {
		n.Close()
		t.Fatal("ListenTCP with a nil codec succeeded")
	}
}

// TestTCPRejectsForeignStreams: an inbound stream that does not open
// with a sane length prefix is closed without delivering anything. The
// reader goroutine's exit is what closes the socket, so the client
// seeing EOF (plus the package's leakcheck TestMain) shows it is gone.
func TestTCPRejectsForeignStreams(t *testing.T) {
	oversize := binary.BigEndian.AppendUint32(nil, maxTCPFrame+1)
	cases := map[string][]byte{
		// The retired five-byte codec hello.
		"old hello": {'D', 'F', 'W', 'P', 1},
		// How a pre-framing stream opened: a type-descriptor preamble
		// of the retired reflection encoding.
		"legacy type preamble": {0x3e, 0x7f, 0x03, 0x01, 0x01, 0x0c, 'W', 'i', 'r', 'e', 'E', 'n', 'v'},
		"zero length":          {0, 0, 0, 0, FrameBinary, 1, 2, 0},
		"oversize length":      append(oversize, FrameBinary, 1, 2, 0),
	}
	for name, opening := range cases {
		t.Run(name, func(t *testing.T) {
			col := newCollector()
			b, err := ListenTCP(2, "127.0.0.1:0", "", testTCP, col.handler)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			conn, err := net.Dial("tcp", b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(opening); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("listener kept the stream open: read n=%d err=%v", n, err)
			}
			col.mu.Lock()
			defer col.mu.Unlock()
			if len(col.envs) != 0 {
				t.Fatalf("delivered %d envelopes from a foreign stream", len(col.envs))
			}
		})
	}
}

// TestTCPSendToStalledPeerTimesOut: a peer that accepts but never
// reads must cost the sender at most the write deadline, not park it
// until Close; the dead stream is dropped (the next send redials) and
// healthy peers are unaffected.
func TestTCPSendToStalledPeerTimesOut(t *testing.T) {
	// The stalled peer: accepts, holds the sockets, never reads.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held sync.WaitGroup
	held.Add(1)
	go func() {
		defer held.Done()
		var conns []net.Conn
		defer func() {
			for _, conn := range conns {
				conn.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn)
		}
	}()
	defer func() {
		ln.Close()
		held.Wait()
	}()

	colC := newCollector()
	c, err := ListenTCP(3, "127.0.0.1:0", "", testTCP, colC.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const bound = 300 * time.Millisecond
	a, err := ListenTCP(1, "127.0.0.1:0", "", TCPConfig{Codec: textCodec{}, DialTimeout: bound}, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Learn(2, ln.Addr().String())
	a.Learn(3, c.Addr())

	// Fill the peer's socket buffers; the send that no longer fits must
	// fail within the bound instead of blocking.
	big := &tcpTestMsg{Text: strings.Repeat("x", 1<<20)}
	var sendErr error
	for i := 0; i < 256 && sendErr == nil; i++ {
		start := time.Now()
		sendErr = a.Sender().Send(context.Background(), 2, big)
		if took := time.Since(start); took > bound+2*time.Second {
			t.Fatalf("send %d blocked %v, bound is %v", i, took, bound)
		}
	}
	if !errors.Is(sendErr, ErrDropped) {
		t.Fatalf("sends to a never-reading peer: err = %v, want ErrDropped", sendErr)
	}
	a.mu.RLock()
	_, kept := a.conns[2]
	a.mu.RUnlock()
	if kept {
		t.Fatal("stalled connection still cached after a failed write")
	}

	if err := a.Sender().Send(context.Background(), 3, &tcpTestMsg{Text: "still here"}); err != nil {
		t.Fatalf("send to healthy peer after the stall: %v", err)
	}
	colC.waitFor(t, 1, 5*time.Second)
}

// addrLogCodec is textCodec recording the FromAddr of every frame it
// decodes, in arrival order.
type addrLogCodec struct {
	textCodec
	mu    sync.Mutex
	addrs []string
}

func (c *addrLogCodec) Decode(b []byte) (*WireEnvelope, error) {
	env, err := c.textCodec.Decode(b)
	if err == nil {
		c.mu.Lock()
		c.addrs = append(c.addrs, env.FromAddr)
		c.mu.Unlock()
	}
	return env, err
}

func (c *addrLogCodec) seen() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.addrs...)
}

// TestTCPAnnouncesAddressOncePerStream: a stream carries the sender's
// dialable address on its first frame and on every announceEvery-th
// after it, an empty one between; a redialled stream announces again;
// and a receiver that never heard of the sender can answer it after
// that first frame.
func TestTCPAnnouncesAddressOncePerStream(t *testing.T) {
	log := &addrLogCodec{}
	colB := newCollector()
	b, err := ListenTCP(2, "127.0.0.1:0", "", TCPConfig{Codec: log}, colB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	colA := newCollector()
	a, err := ListenTCP(1, "127.0.0.1:0", "", testTCP, colA.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Learn(2, b.Addr())

	ctx := context.Background()
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := a.Sender().Send(ctx, 2, &tcpTestMsg{Text: "x"}); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
	}
	send(announceEvery + 2)
	colB.waitFor(t, announceEvery+2, 5*time.Second)
	for i, addr := range log.seen() {
		want := ""
		if i%announceEvery == 0 {
			want = a.Addr()
		}
		if addr != want {
			t.Fatalf("frame %d carried FromAddr %q, want %q", i+1, addr, want)
		}
	}

	// The brand-new peer is answered off the first frame alone.
	if err := b.Sender().Send(ctx, 1, &tcpTestMsg{Text: "right back"}); err != nil {
		t.Fatalf("reply to a peer known from its first frame only: %v", err)
	}
	colA.waitFor(t, 1, 5*time.Second)

	// A torn-down stream is redialled, and the new one announces again.
	a.mu.RLock()
	c := a.conns[2]
	a.mu.RUnlock()
	a.dropConn(2, c)
	send(2)
	colB.waitFor(t, announceEvery+4, 5*time.Second)
	tail := log.seen()[announceEvery+2:]
	if len(tail) != 2 || tail[0] != a.Addr() || tail[1] != "" {
		t.Fatalf("after a redial the stream carried FromAddr %q, want [%q \"\"]", tail, a.Addr())
	}
}

// TestTCPMarksLastFrameInHand: a frame is delivered Last exactly when
// the read loop holds no further frame of its stream. Two frames
// written in one write arrive in one read: the first is not Last, the
// second is.
func TestTCPMarksLastFrameInHand(t *testing.T) {
	col := newCollector()
	b, err := ListenTCP(2, "127.0.0.1:0", "", testTCP, col.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var stream []byte
	for _, text := range []string{"first", "second"} {
		frame, _ := textCodec{}.Encode(nil, &WireEnvelope{From: 1, To: 2, Msg: &tcpTestMsg{Text: text}})
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(frame)))
		stream = append(stream, frame...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	envs := col.waitFor(t, 2, 5*time.Second)
	if envs[0].Last || !envs[1].Last {
		t.Fatalf("Last = %v, %v; want false, true", envs[0].Last, envs[1].Last)
	}
}
