package transport_test

// Codec-aware fabric tests live in an external test package so they
// can exercise the real wire codec (package wire imports transport,
// so transport's own tests cannot).

import (
	"context"
	"testing"
	"time"

	"dataflasks/internal/core"
	"dataflasks/internal/metrics"
	"dataflasks/internal/pss"
	"dataflasks/internal/sim"
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
	encoded := &metrics.SharedCounter{}
	col := newCollector()
	b := listenTCP(t, 2, transport.TCPConfig{Codec: codec}, col.handler)
	a := listenTCP(t, 1, transport.TCPConfig{Codec: codec, EncodeBytes: encoded}, func(transport.Envelope) {})
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
	if encoded.Load() == 0 {
		t.Error("wire_encode_bytes not counted on framed path")
	}
}

// fabric is one in-memory fabric under test: attach registers a
// handler and returns the node's sender, flush runs what is in flight.
type fabric struct {
	name   string
	attach func(id transport.NodeID, h func(transport.Envelope)) transport.Sender
	flush  func()
}

// memFabrics returns a fresh simulated and a fresh in-process fabric,
// both over the real codec.
func memFabrics(t *testing.T) []fabric {
	t.Helper()
	engine := sim.NewEngine()
	simNet := transport.NewSimNetwork(engine, wire.BinaryCodec(), transport.SimNetworkConfig{Latency: transport.FixedLatency(time.Millisecond)})
	chanNet := transport.NewChanNetwork(wire.BinaryCodec())
	t.Cleanup(chanNet.Close)
	return []fabric{
		{"sim", simNet.Attach, func() { engine.RunUntilIdle(0) }},
		{"chan", func(id transport.NodeID, h func(transport.Envelope)) transport.Sender {
			s, err := chanNet.Attach(id, h)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, func() {}},
	}
}

// TestFabricsDeliverACopy: what a receiver gets is its own decoded
// copy, so a sender that reuses a sent message's value after Send does
// not change it — as over TCP.
func TestFabricsDeliverACopy(t *testing.T) {
	for _, f := range memFabrics(t) {
		var got []transport.Envelope
		f.attach(2, func(env transport.Envelope) { got = append(got, env) })
		s := f.attach(1, func(transport.Envelope) {})
		put := &core.PutRequest{Routing: core.Routing{ID: 9, Origin: 1, TTL: 3}, Key: "k", Version: 1, Value: []byte("v1")}
		if err := s.Send(context.Background(), 2, put); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		copy(put.Value, "xx")
		put.Key = "other"
		f.flush()
		if len(got) != 1 {
			t.Fatalf("%s: %d deliveries, want 1", f.name, len(got))
		}
		p, ok := got[0].Msg.(*core.PutRequest)
		if !ok || p == put || p.Key != "k" || string(p.Value) != "v1" {
			t.Errorf("%s: receiver got %#v, want its own copy of key k, value v1", f.name, got[0].Msg)
		}
	}
}

// TestFabricsPanicOnUnregisteredMessage: a send of a type the codec
// cannot encode panics with the codec's error on every in-memory
// fabric, whether or not its recipient exists.
func TestFabricsPanicOnUnregisteredMessage(t *testing.T) {
	type unregistered struct{ X int }
	msg := &unregistered{X: 1}
	_, want := wire.BinaryCodec().Encode(nil, &wire.Envelope{Msg: msg})
	if want == nil {
		t.Fatal("the codec encoded an unregistered type")
	}
	for _, f := range memFabrics(t) {
		f.attach(2, func(transport.Envelope) {})
		s := f.attach(1, func(transport.Envelope) {})
		for _, to := range []transport.NodeID{2, 99} {
			func() {
				defer func() {
					err, ok := recover().(error)
					if !ok || err.Error() != want.Error() {
						t.Errorf("%s: send to %v panicked with %v, want %v", f.name, to, err, want)
					}
				}()
				_ = s.Send(context.Background(), to, msg)
			}()
		}
	}
}

// TestEnvelopeBytesIsFrameLength: every fabric stamps a delivered
// envelope with the length of the frame the codec encoded for it.
func TestEnvelopeBytesIsFrameLength(t *testing.T) {
	put := &core.PutRequest{Routing: core.Routing{ID: 9, Origin: 1, TTL: 3}, Key: "k", Version: 1, Value: []byte("value")}
	frameLen := func(fromAddr string) int {
		frame, err := wire.BinaryCodec().Encode(nil, &wire.Envelope{From: 1, FromAddr: fromAddr, To: 2, Msg: put})
		if err != nil {
			t.Fatal(err)
		}
		return len(frame)
	}
	for _, f := range memFabrics(t) {
		var got []transport.Envelope
		f.attach(2, func(env transport.Envelope) { got = append(got, env) })
		if err := f.attach(1, func(transport.Envelope) {}).Send(context.Background(), 2, put); err != nil {
			t.Fatal(err)
		}
		f.flush()
		if len(got) != 1 || got[0].Bytes != frameLen("") {
			t.Errorf("%s: delivered %+v, want Bytes = %d", f.name, got, frameLen(""))
		}
	}

	// TCP: the stream's first frame announces the sender's address.
	col := newCollector()
	b := listenTCP(t, 2, transport.TCPConfig{Codec: wire.BinaryCodec()}, col.handler)
	a := listenTCP(t, 1, transport.TCPConfig{Codec: wire.BinaryCodec()}, func(transport.Envelope) {})
	a.Learn(2, b.Addr())
	if err := a.Sender().Send(context.Background(), 2, put); err != nil {
		t.Fatal(err)
	}
	if env := col.wait(t); env.Bytes != frameLen(a.Addr()) {
		t.Errorf("tcp: Bytes = %d, want %d", env.Bytes, frameLen(a.Addr()))
	}
}
