package transport

import (
	"context"
	"math/rand/v2"

	"dataflasks/internal/sim"
)

// SimNetwork delivers messages through a discrete-event engine with a
// configurable latency model and loss rate. It is single-threaded by
// construction (everything happens inside engine events) and therefore
// deterministic for a fixed seed.
type SimNetwork struct {
	engine    *sim.Engine
	codec     WireCodec
	scratch   []byte // reused frame buffer
	rng       *rand.Rand
	latency   LatencyModel
	lossRate  float64
	handlers  map[NodeID]func(Envelope)
	down      map[NodeID]bool
	partition func(NodeID) bool // nil when the fabric is whole
	stats     Stats
}

// SimNetworkConfig tunes a simulated fabric.
type SimNetworkConfig struct {
	// Latency draws per-message delays. Defaults to LANLatency.
	Latency LatencyModel
	// LossRate in [0,1) drops messages uniformly at random.
	LossRate float64
	// Seed feeds the fabric's private RNG (latency jitter, loss).
	Seed uint64
}

// NewSimNetwork creates a simulated fabric on the given engine; every
// message it carries goes through codec.
func NewSimNetwork(engine *sim.Engine, codec WireCodec, cfg SimNetworkConfig) *SimNetwork {
	if engine == nil || codec == nil {
		panic("transport: NewSimNetwork requires an engine and a codec")
	}
	lat := cfg.Latency
	if lat == nil {
		lat = LANLatency()
	}
	return &SimNetwork{
		engine:   engine,
		codec:    codec,
		rng:      sim.RNG(cfg.Seed, 0xfab),
		latency:  lat,
		lossRate: cfg.LossRate,
		handlers: make(map[NodeID]func(Envelope)),
		down:     make(map[NodeID]bool),
	}
}

// Attach registers a handler for id and returns the node's sender.
// Re-attaching an id (a restarted node) replaces the old handler and
// clears the down flag.
func (n *SimNetwork) Attach(id NodeID, handler func(Envelope)) Sender {
	if handler == nil {
		panic("transport: Attach requires a handler")
	}
	n.handlers[id] = handler
	delete(n.down, id)
	return BindSender(n, id)
}

// Detach marks id permanently gone; queued messages to it are dropped on
// delivery. Used by churn injection to crash nodes.
func (n *SimNetwork) Detach(id NodeID) {
	n.down[id] = true
	delete(n.handlers, id)
}

// SetDown toggles a node's reachability without discarding its handler,
// modelling a transient crash or disconnection.
func (n *SimNetwork) SetDown(id NodeID, down bool) {
	if down {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
}

// Partition splits the fabric: messages between the inA side and the
// rest are dropped until the returned heal function runs. Installing a
// new partition replaces the previous one.
func (n *SimNetwork) Partition(inA func(NodeID) bool) (heal func()) {
	n.partition = inA
	return func() { n.partition = nil }
}

// Stats returns fabric-level delivery counters.
func (n *SimNetwork) Stats() Stats { return n.stats }

// Send implements Fabric. The message is encoded and decoded at once,
// whatever becomes of it. The simulation is single-threaded and
// deterministic, so ctx is accounting-only: a cancelled ctx drops the
// message, nothing ever blocks.
func (n *SimNetwork) Send(ctx context.Context, to NodeID, env Envelope) error {
	from := env.From
	env.To = to
	env, n.scratch = carry(n.codec, n.scratch, env)
	n.stats.Sent++
	if err := ctx.Err(); err != nil {
		n.stats.Dropped++
		return err
	}
	if n.down[from] {
		// A crashed node's in-flight callbacks may still try to send.
		n.stats.Dropped++
		return ErrPeerDown
	}
	if n.partition != nil && n.partition(from) != n.partition(to) {
		n.stats.Dropped++
		return ErrDropped
	}
	if n.lossRate > 0 && n.rng.Float64() < n.lossRate {
		n.stats.Dropped++
		return ErrDropped
	}
	if _, ok := n.handlers[to]; !ok {
		n.stats.Dropped++
		return ErrUnknownPeer
	}
	delay := n.latency(n.rng)
	n.engine.Schedule(delay, func() {
		h, ok := n.handlers[to]
		if !ok || n.down[to] {
			n.stats.Dropped++
			return
		}
		n.stats.Delivered++
		h(env)
	})
	return nil
}
