package transport_test

// Codec-aware fabric tests live in an external test package so they
// can exercise the real wire codec (package wire imports transport,
// so transport's own tests cannot).

import (
	"context"
	"errors"
	"testing"
	"time"

	"dataflasks/internal/antientropy"
	"dataflasks/internal/core"
	"dataflasks/internal/metrics"
	"dataflasks/internal/pss"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// collector funnels delivered envelopes into a channel.
type collector struct{ ch chan transport.Envelope }

func newCollector() *collector {
	return &collector{ch: make(chan transport.Envelope, 64)}
}

func (c *collector) handler(env transport.Envelope) { c.ch <- env }

func (c *collector) wait(t *testing.T) transport.Envelope {
	t.Helper()
	select {
	case env := <-c.ch:
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery within 5s")
		return transport.Envelope{}
	}
}

func listenTCP(t *testing.T, id transport.NodeID, cfg transport.TCPConfig, h func(transport.Envelope)) *transport.TCPNetwork {
	t.Helper()
	n, err := transport.ListenTCP(id, "127.0.0.1:0", "", cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func sendShuffle(t *testing.T, s transport.Sender, to transport.NodeID) {
	t.Helper()
	msg := &pss.ShuffleRequest{Sample: []pss.Descriptor{{ID: 1, Age: 2, Attr: 0.5, Slice: 3, Addr: "x:1"}}}
	if err := s.Send(context.Background(), to, msg); err != nil {
		t.Fatalf("send: %v", err)
	}
}

func assertShuffle(t *testing.T, env transport.Envelope, from transport.NodeID) {
	t.Helper()
	if env.From != from {
		t.Fatalf("From = %v, want %v", env.From, from)
	}
	m, ok := env.Msg.(*pss.ShuffleRequest)
	if !ok {
		t.Fatalf("message type %T", env.Msg)
	}
	if len(m.Sample) != 1 || m.Sample[0].Addr != "x:1" {
		t.Fatalf("payload mangled: %+v", m)
	}
}

// TestTCPBinaryFraming: the real codec over the real fabric delivers
// both planes' messages on one stream.
func TestTCPBinaryFraming(t *testing.T) {
	codec := wire.BinaryCodec()
	ws := &metrics.WireStats{}
	col := newCollector()
	b := listenTCP(t, 2, transport.TCPConfig{Codec: codec}, col.handler)
	a := listenTCP(t, 1, transport.TCPConfig{Codec: codec, Stats: ws}, func(transport.Envelope) {})
	a.Learn(2, b.Addr())

	sendShuffle(t, a.Sender(), 2)
	assertShuffle(t, col.wait(t), 1)

	// Data plane on the same stream.
	put := &core.PutRequest{Routing: core.Routing{ID: 9, Origin: 1, TTL: 3}, Key: "k", Version: 1, Value: []byte("v")}
	if err := a.Sender().Send(context.Background(), 2, put); err != nil {
		t.Fatal(err)
	}
	got := col.wait(t)
	if p, ok := got.Msg.(*core.PutRequest); !ok || p.Key != "k" || string(p.Value) != "v" {
		t.Fatalf("put mangled: %#v", got.Msg)
	}
	if ws.EncodeBytes.Load() == 0 {
		t.Error("wire_encode_bytes not counted on framed path")
	}
}

// sendShuffleProven retries a shuffle until the probe handshake proves
// the datagram path and the send goes through; every failure on the
// way must be ErrNoDatagramPath.
func sendShuffleProven(t *testing.T, s transport.Sender, to transport.NodeID) {
	t.Helper()
	msg := &pss.ShuffleRequest{Sample: []pss.Descriptor{{ID: 1, Age: 2, Attr: 0.5, Slice: 3, Addr: "x:1"}}}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := s.Send(context.Background(), to, msg)
		if err == nil {
			return
		}
		if !errors.Is(err, transport.ErrNoDatagramPath) {
			t.Fatalf("send: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("datagram path never proved: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUDPDelivery: control messages cross the datagram fabric once the
// probe handshake proves the path; the same-port convention is
// exercised by resolving through a map.
func TestUDPDelivery(t *testing.T) {
	codec := wire.BinaryCodec()
	col := newCollector()
	addrs := map[transport.NodeID]string{}
	resolve := func(id transport.NodeID) (string, bool) {
		a, ok := addrs[id]
		return a, ok
	}
	ub, err := transport.ListenUDP(2, "127.0.0.1:0", transport.UDPConfig{Codec: codec, Resolve: resolve}, col.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer ub.Close()
	ws := &metrics.WireStats{}
	ua, err := transport.ListenUDP(1, "127.0.0.1:0", transport.UDPConfig{Codec: codec, Resolve: resolve, Stats: ws}, func(transport.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ua.Close()
	addrs[2] = ub.Addr()

	// The first send probes instead of trusting the path blindly (the
	// peer might have no UDP listener); the ack flips it to proven.
	if err := ua.Sender().Send(context.Background(), 2, &pss.ShuffleRequest{}); !errors.Is(err, transport.ErrNoDatagramPath) {
		t.Fatalf("first send to unproven peer: %v, want ErrNoDatagramPath", err)
	}
	sendShuffleProven(t, ua.Sender(), 2)
	assertShuffle(t, col.wait(t), 1)
	if ws.UDPSent.Load() != 1 {
		t.Errorf("udp_datagrams_sent = %d, want 1", ws.UDPSent.Load())
	}

	// Unknown peer: dropped and counted, not an error class that can
	// wedge the caller.
	if err := ua.Sender().Send(context.Background(), 42, &pss.ShuffleRequest{}); !errors.Is(err, transport.ErrUnknownPeer) {
		t.Fatalf("unknown peer: %v", err)
	}
	if ws.UDPDropped.Load() == 0 {
		t.Error("drop not counted")
	}
}

// TestUDPOversizeFallsBackToTCP: a frame over the datagram cap returns
// ErrOversize, and FallbackSender reroutes it over the stream fabric.
func TestUDPOversizeFallsBackToTCP(t *testing.T) {
	codec := wire.BinaryCodec()
	col := newCollector()
	tcpB := listenTCP(t, 2, transport.TCPConfig{Codec: codec}, col.handler)
	tcpA := listenTCP(t, 1, transport.TCPConfig{Codec: codec}, func(transport.Envelope) {})
	tcpA.Learn(2, tcpB.Addr())
	resolveVia := func(tn *transport.TCPNetwork) func(transport.NodeID) (string, bool) {
		return func(id transport.NodeID) (string, bool) { return tn.PeerAddr(id), tn.PeerAddr(id) != "" }
	}

	// Peer 2's datagram listener shares its TCP port (the same-port
	// convention node.go follows), so node 1 can prove the path.
	ub, err := transport.ListenUDP(2, tcpB.BoundAddr(), transport.UDPConfig{
		Codec: codec, Resolve: resolveVia(tcpB),
	}, col.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer ub.Close()
	ws := &metrics.WireStats{}
	ua, err := transport.ListenUDP(1, tcpA.BoundAddr(), transport.UDPConfig{
		Codec: codec, Stats: ws, MaxDatagram: 1024, Resolve: resolveVia(tcpA),
	}, func(transport.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ua.Close()
	sendShuffleProven(t, ua.Sender(), 2) // prove the path first
	col.wait(t)

	// Direct send of an oversize frame on the proven path: ErrOversize.
	big := &antientropy.Push{Objects: []store.Object{{Key: "k", Version: 1, Value: make([]byte, 4096)}}}
	if err := ua.Sender().Send(context.Background(), 2, big); !errors.Is(err, transport.ErrOversize) {
		t.Fatalf("want ErrOversize, got %v", err)
	}
	if ws.UDPOversize.Load() != 1 {
		t.Errorf("udp_datagrams_oversize = %d, want 1", ws.UDPOversize.Load())
	}

	// Through the fallback chain it must land via TCP instead.
	fb := transport.FallbackSender(ua.Sender(), tcpA.Sender())
	if err := fb.Send(context.Background(), 2, big); err != nil {
		t.Fatalf("fallback send: %v", err)
	}
	env := col.wait(t)
	if p, ok := env.Msg.(*antientropy.Push); !ok || len(p.Objects) != 1 || len(p.Objects[0].Value) != 4096 {
		t.Fatalf("oversize payload mangled: %#v", env.Msg)
	}

	// A peer with no UDP listener at all: the probe goes unanswered, so
	// every send reports no path and FallbackSender keeps control
	// traffic on TCP — the mixed-deployment case that must not
	// blackhole.
	tcpC := listenTCP(t, 3, transport.TCPConfig{Codec: codec}, col.handler)
	tcpA.Learn(3, tcpC.Addr())
	if err := ua.Sender().Send(context.Background(), 3, &pss.ShuffleRequest{}); !errors.Is(err, transport.ErrNoDatagramPath) {
		t.Fatalf("send to UDP-less peer: %v, want ErrNoDatagramPath", err)
	}
	sendShuffle(t, fb, 3)
	assertShuffle(t, col.wait(t), 1)
}
