package lab

import (
	"math/rand/v2"
	"slices"
	"time"

	"dataflasks/internal/metrics"
	"dataflasks/internal/sim"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// simNode is what the scaffold asks of a protocol node, DataFlasks or
// baseline.
type simNode interface {
	Bootstrap(seeds []transport.NodeID)
	Store() store.Store
	Metrics() *metrics.NodeMetrics
}

// population is the simulator scaffold under Cluster and DHTCluster: the
// engine and its fabric, node and client id allocation, the alive list,
// one staggered ticker per node, the bootstrap-seed draw and the churn
// surface (it implements churn.Target once the cluster adds Spawn). rng
// is the harness's own stream — a stagger offset per node added, five
// seed draws per node bootstrapped, in call order — so each cluster
// names its stream id and a run's draws do not depend on which cluster
// type made them.
type population[N simNode] struct {
	Engine *sim.Engine
	Net    *transport.SimNetwork

	rng     *rand.Rand
	nodes   map[transport.NodeID]N
	order   []transport.NodeID // alive nodes, ascending id
	tickers map[transport.NodeID]func()
	nextID  transport.NodeID
	nextCl  transport.NodeID
	// deliver and tick run one node's message handler and gossip round.
	deliver func(N, transport.Envelope)
	tick    func(N)
}

func newPopulation[N simNode](net transport.SimNetworkConfig, stream uint64, deliver func(N, transport.Envelope), tick func(N)) population[N] {
	engine := sim.NewEngine()
	return population[N]{
		Engine:  engine,
		Net:     transport.NewSimNetwork(engine, wire.BinaryCodec(), net),
		rng:     sim.RNG(net.Seed, stream),
		nodes:   make(map[transport.NodeID]N),
		tickers: make(map[transport.NodeID]func()),
		nextID:  1,
		nextCl:  clientIDBase,
		deliver: deliver,
		tick:    tick,
	}
}

// populate adds n nodes, then bootstraps each over the whole population.
func (p *population[N]) populate(n int, build func(transport.NodeID, transport.Sender) N) {
	if n <= 0 {
		panic("lab: cluster needs N > 0")
	}
	for i := 0; i < n; i++ {
		p.add(build)
	}
	for _, id := range p.order {
		p.nodes[id].Bootstrap(sim.PickSeeds(p.rng, p.order, id))
	}
}

// add attaches and schedules the node build makes, without bootstrap.
func (p *population[N]) add(build func(transport.NodeID, transport.Sender) N) transport.NodeID {
	id := p.nextID
	p.nextID++
	var n N
	n = build(id, p.Net.Attach(id, func(env transport.Envelope) { p.deliver(n, env) }))
	p.nodes[id] = n
	p.order = append(p.order, id) // ids only grow: still ascending

	// Stagger ticks uniformly inside the round so the cluster is not in
	// lockstep (Minha models the same phase noise).
	offset := time.Duration(p.rng.Int64N(int64(Round)))
	p.tickers[id] = p.Engine.Ticker(p.Engine.Now()+offset, Round, func(time.Duration) { p.tick(n) })
	return id
}

// join adds a fresh node bootstrapped from live seeds.
func (p *population[N]) join(build func(transport.NodeID, transport.Sender) N) transport.NodeID {
	id := p.add(build)
	p.nodes[id].Bootstrap(sim.PickSeeds(p.rng, p.order, id))
	return id
}

// attachClient gives the client endpoint build makes the next client id,
// a fabric sender and a tick half a round off the nodes' first.
func (p *population[N]) attachClient(build func(transport.NodeID, transport.Sender) (handle func(transport.Envelope), tick func())) {
	id := p.nextCl
	var handle func(transport.Envelope)
	handle, tick := build(id, p.Net.Attach(id, func(env transport.Envelope) { handle(env) }))
	p.nextCl++
	// Clients live for the whole simulation: nothing stops the ticker.
	p.Engine.Ticker(p.Engine.Now()+Round/2, Round, func(time.Duration) { tick() })
}

// Run advances the simulation by the given number of gossip rounds.
func (p *population[N]) Run(rounds int) {
	p.Engine.Run(p.Engine.Now() + time.Duration(rounds)*Round)
}

// N returns the live node count.
func (p *population[N]) N() int { return len(p.order) }

// Nodes returns the live nodes in ascending id order.
func (p *population[N]) Nodes() []N {
	out := make([]N, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.nodes[id])
	}
	return out
}

// AliveIDs implements churn.Target.
func (p *population[N]) AliveIDs() []transport.NodeID { return slices.Clone(p.order) }

// Kill implements churn.Target: fail-stop crash. The node's store is
// closed (its on-disk state stays, as after a real crash) so engines
// with background goroutines or open files release them.
func (p *population[N]) Kill(id transport.NodeID) {
	n, ok := p.nodes[id]
	if !ok {
		return
	}
	p.Net.Detach(id)
	p.tickers[id]()
	_ = n.Store().Close()
	delete(p.tickers, id)
	delete(p.nodes, id)
	if i, found := slices.BinarySearch(p.order, id); found {
		p.order = slices.Delete(p.order, i, i+1)
	}
}

// MessagesPerNode returns each live node's sent+received message count
// (the paper's Figures 3/4 metric).
func (p *population[N]) MessagesPerNode() []uint64 {
	out := make([]uint64, 0, len(p.order))
	for _, id := range p.order {
		m := p.nodes[id].Metrics()
		out = append(out, m.Get(metrics.MsgSent)+m.Get(metrics.MsgRecv))
	}
	return out
}

// ReplicaCount returns how many live nodes hold (key, version).
func (p *population[N]) ReplicaCount(key string, version uint64) int {
	count := 0
	for _, id := range p.order {
		if _, _, ok, err := p.nodes[id].Store().Get(key, version); err == nil && ok {
			count++
		}
	}
	return count
}
