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
