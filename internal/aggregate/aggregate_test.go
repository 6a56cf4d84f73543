package aggregate

import (
	"context"
	"math"
	"testing"

	"dataflasks/internal/sim"
	"dataflasks/internal/transport"
)

// aggNet wires n estimators with synchronous delivery and uniform
// random partners.
type aggNet struct {
	ids      []transport.NodeID
	extremas map[transport.NodeID]*Extrema
	queue    []transport.Envelope
}

func newAggNet(n int) *aggNet {
	net := &aggNet{
		extremas: make(map[transport.NodeID]*Extrema, n),
	}
	for i := 1; i <= n; i++ {
		net.ids = append(net.ids, transport.NodeID(i))
	}
	return net
}

func (a *aggNet) sender(from transport.NodeID) transport.Sender {
	return transport.SenderFunc(func(_ context.Context, to transport.NodeID, msg interface{}) error {
		a.queue = append(a.queue, transport.Envelope{From: from, To: to, Msg: msg})
		return nil
	})
}

func (a *aggNet) partner(self transport.NodeID, stream uint64) PartnerFunc {
	rng := sim.RNG(77, stream)
	return func() (transport.NodeID, bool) {
		for {
			p := a.ids[rng.IntN(len(a.ids))]
			if p != self {
				return p, true
			}
		}
	}
}

func (a *aggNet) deliverAll() {
	for len(a.queue) > 0 {
		env := a.queue[0]
		a.queue = a.queue[1:]
		if e, ok := a.extremas[env.To]; ok {
			e.Handle(context.Background(), env.From, env.Msg)
		}
	}
}

func TestExtremaEstimatesSystemSize(t *testing.T) {
	const n = 200
	net := newAggNet(n)
	for _, id := range net.ids {
		net.extremas[id] = NewExtrema(ExtremaConfig{VectorLen: 128, RestartEvery: 0},
			net.sender(id), net.partner(id, uint64(id)), sim.RNG(3, uint64(id)))
	}
	for r := 0; r < 20; r++ {
		for _, id := range net.ids {
			net.extremas[id].Tick(context.Background())
		}
		net.deliverAll()
	}
	for _, id := range net.ids[:10] {
		est, _ := net.extremas[id].Estimate()
		if RelativeError(est, n) > 0.35 {
			t.Errorf("node %v estimates N=%.0f (truth %d)", id, est, n)
		}
	}
}

func TestExtremaVectorsConvergeIdentically(t *testing.T) {
	const n = 50
	net := newAggNet(n)
	for _, id := range net.ids {
		net.extremas[id] = NewExtrema(ExtremaConfig{VectorLen: 32, RestartEvery: 0},
			net.sender(id), net.partner(id, uint64(id)), sim.RNG(5, uint64(id)))
	}
	for r := 0; r < 30; r++ {
		for _, id := range net.ids {
			net.extremas[id].Tick(context.Background())
		}
		net.deliverAll()
	}
	ref, _ := net.extremas[1].Estimate()
	for _, id := range net.ids {
		est, _ := net.extremas[id].Estimate()
		if math.Abs(est-ref) > 1e-9 {
			t.Fatalf("node %v estimate %.3f differs from node 1's %.3f (min-vectors not converged)", id, est, ref)
		}
	}
}

func TestExtremaInitialEstimate(t *testing.T) {
	net := newAggNet(1)
	e := NewExtrema(ExtremaConfig{VectorLen: 64}, net.sender(1), func() (transport.NodeID, bool) { return 0, false }, sim.RNG(1, 1))
	est, _ := e.Estimate()
	// Alone, the estimate should be around 1 (its own variates).
	if est < 0.2 || est > 6 {
		t.Errorf("solo estimate = %.2f, want ~1", est)
	}
}

func TestExtremaHandleForeign(t *testing.T) {
	net := newAggNet(1)
	e := NewExtrema(ExtremaConfig{}, net.sender(1), func() (transport.NodeID, bool) { return 0, false }, sim.RNG(1, 1))
	if e.Handle(context.Background(), 2, "nope") {
		t.Error("claimed a foreign message")
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(110, 100) != 0.1 {
		t.Errorf("RelativeError(110,100) = %v", RelativeError(110, 100))
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Error("division by zero truth not inf")
	}
}
