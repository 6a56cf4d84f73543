package transport

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dataflasks/internal/sim"
)

func text(s string) *tcpTestMsg { return &tcpTestMsg{Text: s} }

// --- SimNetwork -------------------------------------------------------------

func simPair(t *testing.T, cfg SimNetworkConfig) (*sim.Engine, *SimNetwork) {
	t.Helper()
	engine := sim.NewEngine()
	return engine, NewSimNetwork(engine, textCodec{}, cfg)
}

func TestSimNetworkDelivers(t *testing.T) {
	engine, net := simPair(t, SimNetworkConfig{Latency: FixedLatency(time.Millisecond)})
	var got []Envelope
	net.Attach(2, func(env Envelope) { got = append(got, env) })
	s1 := net.Attach(1, func(Envelope) {})

	if err := s1.Send(context.Background(), 2, text("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	engine.RunUntilIdle(0)
	if len(got) != 1 || got[0].From != 1 || got[0].Msg.(*tcpTestMsg).Text != "hello" {
		t.Fatalf("delivered = %+v", got)
	}
	stats := net.Stats()
	if stats.Sent != 1 || stats.Delivered != 1 || stats.Dropped != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSimNetworkUnknownPeer(t *testing.T) {
	engine, net := simPair(t, SimNetworkConfig{})
	s := net.Attach(1, func(Envelope) {})
	if err := s.Send(context.Background(), 99, text("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("err = %v, want ErrUnknownPeer", err)
	}
	engine.RunUntilIdle(0)
	if net.Stats().Dropped != 1 {
		t.Errorf("dropped = %d", net.Stats().Dropped)
	}
}

func TestSimNetworkDetachDropsInFlight(t *testing.T) {
	engine, net := simPair(t, SimNetworkConfig{Latency: FixedLatency(time.Second)})
	delivered := 0
	net.Attach(2, func(Envelope) { delivered++ })
	s1 := net.Attach(1, func(Envelope) {})
	_ = s1.Send(context.Background(), 2, text("in flight"))
	net.Detach(2) // crash before delivery
	engine.RunUntilIdle(0)
	if delivered != 0 {
		t.Error("message delivered to crashed node")
	}
	// Sends from a crashed node drop too.
	if err := s1.Send(context.Background(), 2, text("x")); err == nil {
		t.Error("send to detached peer succeeded")
	}
}

func TestSimNetworkSenderOfDetachedNodeFails(t *testing.T) {
	engine, net := simPair(t, SimNetworkConfig{})
	net.Attach(2, func(Envelope) {})
	s1 := net.Attach(1, func(Envelope) {})
	net.Detach(1)
	if err := s1.Send(context.Background(), 2, text("zombie")); !errors.Is(err, ErrPeerDown) {
		t.Errorf("zombie send err = %v, want ErrPeerDown", err)
	}
	engine.RunUntilIdle(0)
}

func TestSimNetworkLossRate(t *testing.T) {
	engine, net := simPair(t, SimNetworkConfig{LossRate: 0.5, Seed: 7, Latency: FixedLatency(0)})
	delivered := 0
	net.Attach(2, func(Envelope) { delivered++ })
	s1 := net.Attach(1, func(Envelope) {})
	const total = 1000
	for i := 0; i < total; i++ {
		_ = s1.Send(context.Background(), 2, text(strconv.Itoa(i)))
	}
	engine.RunUntilIdle(0)
	if delivered < total/3 || delivered > total*2/3 {
		t.Errorf("delivered %d of %d at 50%% loss", delivered, total)
	}
}

func TestSimNetworkPartitionAndHeal(t *testing.T) {
	engine, net := simPair(t, SimNetworkConfig{Latency: FixedLatency(0)})
	delivered := map[NodeID]int{}
	for id := NodeID(1); id <= 4; id++ {
		id := id
		net.Attach(id, func(Envelope) { delivered[id]++ })
	}
	s1 := net.Attach(1, func(Envelope) { delivered[1]++ })

	heal := net.Partition(func(id NodeID) bool { return id <= 2 })
	_ = s1.Send(context.Background(), 2, text("same side"))
	_ = s1.Send(context.Background(), 3, text("cross"))
	engine.RunUntilIdle(0)
	if delivered[2] != 1 || delivered[3] != 0 {
		t.Fatalf("partition: delivered = %v", delivered)
	}
	heal()
	_ = s1.Send(context.Background(), 3, text("healed"))
	engine.RunUntilIdle(0)
	if delivered[3] != 1 {
		t.Fatalf("heal: delivered = %v", delivered)
	}
}

func TestSimNetworkDeterministic(t *testing.T) {
	run := func() uint64 {
		engine, net := simPair(t, SimNetworkConfig{LossRate: 0.3, Seed: 42})
		net.Attach(2, func(Envelope) {})
		s1 := net.Attach(1, func(Envelope) {})
		for i := 0; i < 200; i++ {
			_ = s1.Send(context.Background(), 2, text(strconv.Itoa(i)))
		}
		engine.RunUntilIdle(0)
		return net.Stats().Delivered
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed delivered %d vs %d", a, b)
	}
}

// --- ChanNetwork -------------------------------------------------------------

func TestChanNetworkRoundTrip(t *testing.T) {
	net := NewChanNetwork(textCodec{})
	defer net.Close()
	var got []Envelope
	if _, err := net.Attach(2, func(env Envelope) { got = append(got, env) }); err != nil {
		t.Fatal(err)
	}
	s1, err := net.Attach(1, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Send(context.Background(), 2, text("ping")); err != nil {
		t.Fatal(err)
	}
	// No delay model: the handler ran on the sender's goroutine.
	if len(got) != 1 || got[0].From != 1 || got[0].To != 2 || got[0].Msg.(*tcpTestMsg).Text != "ping" {
		t.Fatalf("delivered %+v", got)
	}
	if st := net.Stats(); st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestChanNetworkDuplicateAttach(t *testing.T) {
	net := NewChanNetwork(textCodec{})
	defer net.Close()
	if _, err := net.Attach(1, func(Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach(1, func(Envelope) {}); err == nil {
		t.Error("duplicate attach succeeded")
	}
}

// TestChanNetworkDetachDropsSends: a detached id is an unknown peer —
// the sender gets the error, the fabric counts the drop and the handler
// is not called again.
func TestChanNetworkDetachDropsSends(t *testing.T) {
	net := NewChanNetwork(textCodec{})
	defer net.Close()
	calls := 0
	_, _ = net.Attach(1, func(Envelope) { calls++ })
	s2, _ := net.Attach(2, func(Envelope) {})
	if err := s2.Send(context.Background(), 1, text("there")); err != nil || calls != 1 {
		t.Fatalf("send to attached: err=%v calls=%d", err, calls)
	}
	net.Detach(1)
	if err := s2.Send(context.Background(), 1, text("gone")); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send to detached: %v", err)
	}
	if calls != 1 || net.Stats().Dropped != 1 {
		t.Errorf("after detach: handler calls=%d, stats=%+v", calls, net.Stats())
	}
	// The id is free again.
	if _, err := net.Attach(1, func(Envelope) {}); err != nil {
		t.Errorf("re-attach: %v", err)
	}
}

func TestChanNetworkConcurrentSendAndDetach(t *testing.T) {
	// Senders race Detach; every send either reaches the handler or
	// fails with ErrUnknownPeer. Run with -race to exercise it.
	net := NewChanNetwork(textCodec{})
	defer net.Close()
	var handled atomic.Uint64
	_, _ = net.Attach(1, func(Envelope) { handled.Add(1) })
	sender, _ := net.Attach(2, func(Envelope) {})
	var wg sync.WaitGroup
	var failed atomic.Uint64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if err := sender.Send(context.Background(), 1, text(strconv.Itoa(j))); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	net.Detach(1)
	wg.Wait()
	if handled.Load()+failed.Load() != 8*500 {
		t.Errorf("handled %d + failed %d != %d sent", handled.Load(), failed.Load(), 8*500)
	}
}

func TestChanNetworkCloseIsIdempotent(t *testing.T) {
	net := NewChanNetwork(textCodec{})
	s1, _ := net.Attach(1, func(Envelope) {})
	net.Close()
	net.Close()
	if _, err := net.Attach(2, func(Envelope) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("attach after close: %v", err)
	}
	if err := s1.Send(context.Background(), 1, text("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

// --- latency models -----------------------------------------------------------

func TestLatencyModels(t *testing.T) {
	rng := sim.RNG(1, 1)
	fixed := FixedLatency(3 * time.Millisecond)
	for i := 0; i < 10; i++ {
		if d := fixed(rng); d != 3*time.Millisecond {
			t.Fatalf("fixed = %v", d)
		}
	}
	uni := UniformLatency(time.Millisecond, 2*time.Millisecond)
	for i := 0; i < 100; i++ {
		d := uni(rng)
		if d < time.Millisecond || d > 2*time.Millisecond {
			t.Fatalf("uniform out of range: %v", d)
		}
	}
	// Swapped bounds normalize.
	swapped := UniformLatency(2*time.Millisecond, time.Millisecond)
	if d := swapped(rng); d < time.Millisecond || d > 2*time.Millisecond {
		t.Fatalf("swapped-bounds uniform = %v", d)
	}
	lan := LANLatency()
	for i := 0; i < 1000; i++ {
		d := lan(rng)
		if d < 200*time.Microsecond || d > 10*time.Millisecond {
			t.Fatalf("lan latency out of bounds: %v", d)
		}
	}
}

func TestNodeIDString(t *testing.T) {
	if got := NodeID(42).String(); got != "n42" {
		t.Errorf("String = %q", got)
	}
}
