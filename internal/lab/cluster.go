// Package lab assembles simulated DataFlasks (and baseline DHT)
// clusters on the discrete-event engine and implements every experiment
// of the paper's evaluation plus this reproduction's extensions. It is
// the Minha-equivalent test bench: thousands of unmodified protocol
// nodes in virtual time on one machine, bit-for-bit reproducible per
// seed.
//
// Cluster is the DataFlasks harness (nodes, clients, churn surface,
// metrics collection); DHTCluster mirrors it for the structured
// baseline. RunWorkload drives the paper's §VI methodology (warm up,
// preload, measure, drain) with YCSB-style mixes; Figure3/Figure4
// regenerate the paper's headline plots; the E-numbered experiment
// functions (slicing convergence, correlated failure, availability and
// convergence under churn, repair, ablations, PSS quality, fanout
// theory checks, client-API and RESP throughput) each return plain
// result structs that cmd/flaskbench renders — and, for the gated
// ones, asserts on in CI. Determinism is the point: virtual time makes
// throughput and bandwidth ratios exact enough to fail a build on, and
// the Write* functions render six experiments' tables here, at
// flaskbench's scales, so testdata/*.golden can pin their -quick runs.
package lab

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"time"

	"dataflasks/internal/churn"
	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/metrics"
	"dataflasks/internal/sim"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// Round is the virtual gossip period every protocol ticks at.
const Round = time.Second

// clientIDBase keeps client ids out of the node id range while still
// fitting the 32-bit origin field of request ids.
const clientIDBase = 0xC0000000

// ClusterConfig sets up a simulated DataFlasks cluster.
type ClusterConfig struct {
	// N is the initial node count.
	N int
	// Node is the per-node configuration; SystemSize and Seed are
	// overridden per cluster/node.
	Node core.Config
	// Seed drives every random choice in the cluster.
	Seed uint64
	// SeedContacts is how many bootstrap contacts each node gets
	// (default 5).
	SeedContacts int
	// LossRate drops messages uniformly at random.
	LossRate float64
	// Latency overrides the fabric latency model (default LAN).
	Latency transport.LatencyModel
	// StoreFactory builds each node's store (default: built from Store
	// and StoreDir, which means memory when both are zero).
	StoreFactory func(id transport.NodeID) store.Store
	// Store selects the persistence engine used when StoreFactory is
	// nil, so any experiment can run over any engine.
	Store core.StoreConfig
	// StoreDir roots the per-node data directories of non-memory
	// engines; each node stores under StoreDir/<id>.
	StoreDir string
	// AutoSystemSize leaves Node.SystemSize zero so nodes run the
	// gossip size estimator instead of being told N.
	AutoSystemSize bool
}

// Cluster is a simulated DataFlasks deployment.
type Cluster struct {
	Engine *sim.Engine
	Net    *transport.SimNetwork

	// ctx is the cluster-lifetime context threaded into every node's
	// Tick and HandleMessage; the simulated fabric never blocks, so it
	// only carries the plumbing contract, not cancellation pressure.
	ctx context.Context

	cfg     ClusterConfig
	rng     *rand.Rand
	nodes   map[transport.NodeID]*core.Node
	order   []transport.NodeID // alive nodes, ascending id
	tickers map[transport.NodeID]func()
	clients map[transport.NodeID]*client.Core
	// contacts counts the requests clients addressed to each node, by
	// the slice of the request's key, since the last ResetMetrics (E7's
	// contact spread).
	contacts map[contact]int
	nextID   transport.NodeID
	nextCl   transport.NodeID
}

var _ churn.SliceTarget = (*Cluster)(nil)

// StoreFactoryFor builds per-node stores of the configured engine,
// each rooted in its own subdirectory of baseDir. It lets every
// experiment run the identical workload over the memory or log
// engine. A config needing a directory without one panics — that is a
// harness bug, not a runtime condition.
func StoreFactoryFor(sc core.StoreConfig, baseDir string) func(id transport.NodeID) store.Store {
	if baseDir == "" && sc.Engine != 0 && sc.Engine != core.StoreMemory {
		panic("lab: persistent store engine configured without StoreDir")
	}
	return func(id transport.NodeID) store.Store {
		dir := ""
		if baseDir != "" {
			dir = filepath.Join(baseDir, id.String())
		}
		s, err := sc.Open(dir)
		if err != nil {
			panic(fmt.Sprintf("lab: open store for node %s: %v", id, err))
		}
		return s
	}
}

// NewCluster builds and bootstraps a cluster (no rounds run yet).
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.N <= 0 {
		panic("lab: cluster needs N > 0")
	}
	if cfg.SeedContacts <= 0 {
		cfg.SeedContacts = 5
	}
	if cfg.StoreFactory == nil {
		sc := cfg.Store
		if sc == (core.StoreConfig{}) {
			// Honor the knob on the embedded node config too, so
			// setting it there is not a silent no-op.
			sc = cfg.Node.Store
		}
		cfg.StoreFactory = StoreFactoryFor(sc, cfg.StoreDir)
	}
	engine := sim.NewEngine()
	net := transport.NewSimNetwork(engine, transport.SimNetworkConfig{
		Latency:  cfg.Latency,
		LossRate: cfg.LossRate,
		Seed:     cfg.Seed,
	})
	c := &Cluster{
		Engine:   engine,
		Net:      net,
		ctx:      context.Background(),
		cfg:      cfg,
		rng:      sim.RNG(cfg.Seed, 0x1ab),
		nodes:    make(map[transport.NodeID]*core.Node, cfg.N),
		tickers:  make(map[transport.NodeID]func()),
		clients:  make(map[transport.NodeID]*client.Core),
		contacts: make(map[contact]int),
		nextID:   1,
		nextCl:   clientIDBase,
	}
	for i := 0; i < cfg.N; i++ {
		c.addNode()
	}
	// Bootstrap views over the full initial population.
	for _, id := range c.order {
		c.nodes[id].Bootstrap(c.randomSeeds(id))
	}
	return c
}

// addNode creates, attaches and schedules one node (without bootstrap).
func (c *Cluster) addNode() transport.NodeID { return c.addNodeWith(nil) }

// addNodeWith is addNode with a config modifier applied to the fresh
// node (e.g. a joiner that bootstraps via segment streaming while the
// rest of the population does not).
func (c *Cluster) addNodeWith(mod func(*core.Config)) transport.NodeID {
	id := c.nextID
	c.nextID++

	nodeCfg := c.cfg.Node
	nodeCfg.Seed = c.cfg.Seed
	if !c.cfg.AutoSystemSize {
		nodeCfg.SystemSize = c.cfg.N
	}
	if mod != nil {
		mod(&nodeCfg)
	}

	var n *core.Node
	sender := c.Net.Attach(id, func(env transport.Envelope) { n.HandleMessage(c.ctx, env) })
	n = core.NewNode(id, nodeCfg, c.cfg.StoreFactory(id), sender)
	c.nodes[id] = n
	c.insertOrdered(id)

	// Stagger ticks uniformly inside the round so the cluster is not in
	// lockstep (Minha models the same phase noise).
	offset := time.Duration(c.rng.Int64N(int64(Round)))
	stop := c.Engine.Ticker(c.Engine.Now()+offset, Round, func(time.Duration) { n.Tick(c.ctx) })
	c.tickers[id] = stop
	return id
}

func (c *Cluster) insertOrdered(id transport.NodeID) {
	i := sort.Search(len(c.order), func(i int) bool { return c.order[i] >= id })
	c.order = append(c.order, 0)
	copy(c.order[i+1:], c.order[i:])
	c.order[i] = id
}

func (c *Cluster) randomSeeds(self transport.NodeID) []transport.NodeID {
	seeds := make([]transport.NodeID, 0, c.cfg.SeedContacts)
	for len(seeds) < c.cfg.SeedContacts && len(seeds) < len(c.order)-1 {
		cand := c.order[c.rng.IntN(len(c.order))]
		if cand == self {
			continue
		}
		dup := false
		for _, s := range seeds {
			if s == cand {
				dup = true
				break
			}
		}
		if !dup {
			seeds = append(seeds, cand)
		}
	}
	return seeds
}

// Run advances the simulation by the given number of gossip rounds.
func (c *Cluster) Run(rounds int) {
	c.Engine.Run(c.Engine.Now() + time.Duration(rounds)*Round)
}

// N returns the live node count.
func (c *Cluster) N() int { return len(c.order) }

// Nodes returns the live nodes in ascending id order.
func (c *Cluster) Nodes() []*core.Node {
	out := make([]*core.Node, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.nodes[id])
	}
	return out
}

// Node returns one node by id (nil when dead/unknown).
func (c *Cluster) Node(id transport.NodeID) *core.Node { return c.nodes[id] }

// AliveIDs implements churn.Target.
func (c *Cluster) AliveIDs() []transport.NodeID {
	out := make([]transport.NodeID, len(c.order))
	copy(out, c.order)
	return out
}

// Kill implements churn.Target: fail-stop crash. The node's store is
// closed (its on-disk state stays, as after a real crash) so engines
// with background goroutines or open files release them.
func (c *Cluster) Kill(id transport.NodeID) {
	n, ok := c.nodes[id]
	if !ok {
		return
	}
	c.Net.Detach(id)
	if stop := c.tickers[id]; stop != nil {
		stop()
	}
	_ = n.Store().Close()
	delete(c.tickers, id)
	delete(c.nodes, id)
	i := sort.Search(len(c.order), func(i int) bool { return c.order[i] >= id })
	if i < len(c.order) && c.order[i] == id {
		c.order = append(c.order[:i], c.order[i+1:]...)
	}
}

// Close releases every alive node's store. Memory-backed clusters do
// not need it; log/disk-backed ones hold open files (and the log
// engine a compaction goroutine) per node until closed.
func (c *Cluster) Close() {
	for _, id := range c.order {
		_ = c.nodes[id].Store().Close()
	}
}

// Spawn implements churn.Target: a fresh node joins, bootstrapped from
// live seeds.
func (c *Cluster) Spawn() transport.NodeID {
	id := c.addNode()
	c.nodes[id].Bootstrap(c.randomSeeds(id))
	return id
}

// SpawnWith is Spawn with a config modifier for the fresh node.
func (c *Cluster) SpawnWith(mod func(*core.Config)) transport.NodeID {
	id := c.addNodeWith(mod)
	c.nodes[id].Bootstrap(c.randomSeeds(id))
	return id
}

// SliceOf implements churn.SliceTarget.
func (c *Cluster) SliceOf(id transport.NodeID) int32 {
	n, ok := c.nodes[id]
	if !ok {
		return -1
	}
	return n.Slice()
}

// sliceCount is the slice count the nodes run with (core.Config's
// default when the experiment left it unset).
func (c *Cluster) sliceCount() int {
	if k := c.cfg.Node.Slices; k > 0 {
		return k
	}
	return 10
}

// RandomLB returns the paper's baseline balancer over the nodes alive
// now, for the next NewClient call: experiments that reproduce the
// paper's message counts pass it explicitly.
func (c *Cluster) RandomLB() *client.RandomLB {
	return client.NewRandomLB(c.AliveIDs(), sim.RNG(c.cfg.Seed, uint64(c.nextCl)))
}

// NewClient attaches a client endpoint with the given configuration and
// load balancer. A nil lb is what live clients run: the slice directory
// over a random contact list of the current nodes.
func (c *Cluster) NewClient(cfg client.Config, lb client.LoadBalancer) *client.Core {
	id := c.nextCl
	var cl *client.Core
	raw := c.Net.Attach(id, func(env transport.Envelope) { cl.HandleMessage(env) })
	sender := transport.SenderFunc(func(ctx context.Context, to transport.NodeID, msg interface{}) error {
		if key, ok := core.RequestKey(msg); ok { // mate queries are not requests
			c.contacts[contact{slicing.KeySlice(key, c.sliceCount()), to}]++
		}
		return raw.Send(ctx, to, msg)
	})
	if lb == nil {
		lb = client.NewDirectory(c.RandomLB(), c.sliceCount(), sim.RNG(c.cfg.Seed, uint64(id)^0xd1c7), sender, nil)
	}
	c.nextCl++
	cl = client.NewCore(id, cfg, sender, lb)
	c.clients[id] = cl
	stop := c.Engine.Ticker(c.Engine.Now()+Round/2, Round, func(time.Duration) { cl.Tick() })
	_ = stop // clients live for the whole simulation
	return cl
}

// Inject delivers a request directly to a node's handler at the current
// virtual instant, bypassing the client library (used by experiments
// that measure raw dissemination).
func (c *Cluster) Inject(contact transport.NodeID, msg interface{}) {
	n, ok := c.nodes[contact]
	if !ok {
		return
	}
	c.Engine.Schedule(0, func() {
		n.HandleMessage(c.ctx, transport.Envelope{From: 0, To: contact, Msg: msg})
	})
}

// ResetMetrics zeroes every node's counters and the fabric stats — the
// evaluation measures the workload phase only, after warm-up, like the
// paper's experiments.
func (c *Cluster) ResetMetrics() {
	for _, n := range c.nodes {
		n.ResetMetrics()
	}
	clear(c.contacts)
}

// contact is one (slice of the key, node contacted) pair.
type contact struct {
	slice int32
	node  transport.NodeID
}

// ContactSpread reports how evenly clients spread the requests for one
// slice's keys over that slice's members: the busiest contact's share
// over the fair share (one in slice-size), for the worst slice. 1 is
// perfectly even; the slice size means one node took everything.
func (c *Cluster) ContactSpread() float64 {
	total, busiest := make(map[int32]int), make(map[int32]int)
	for to, n := range c.contacts {
		total[to.slice] += n
		busiest[to.slice] = max(busiest[to.slice], n)
	}
	sizes, worst := c.SliceSizes(), 0.0
	for slice, n := range total {
		worst = max(worst, float64(busiest[slice]*sizes[slice])/float64(n))
	}
	return worst
}

// MessagesPerNode returns each live node's sent+received message count
// (the paper's Figures 3/4 metric).
func (c *Cluster) MessagesPerNode() []uint64 {
	out := make([]uint64, 0, len(c.order))
	for _, id := range c.order {
		m := c.nodes[id].Metrics()
		out = append(out, m.Get(metrics.MsgSent)+m.Get(metrics.MsgRecv))
	}
	return out
}

// NodeMetrics returns the live nodes' metric handles in id order.
func (c *Cluster) NodeMetrics() []*metrics.NodeMetrics {
	out := make([]*metrics.NodeMetrics, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.nodes[id].Metrics())
	}
	return out
}

// SliceSizes returns how many live nodes currently claim each slice
// (index SliceUnknown claims are under key -1).
func (c *Cluster) SliceSizes() map[int32]int {
	out := make(map[int32]int)
	for _, id := range c.order {
		out[c.nodes[id].Slice()]++
	}
	return out
}

// SliceAccuracy compares every node's claim against its true
// rank-derived slice and returns the fraction of correct claims.
func (c *Cluster) SliceAccuracy() float64 {
	if len(c.order) == 0 {
		return 0
	}
	k := c.sliceCount()
	// True slice: position of the node's attribute among all live
	// attributes.
	type nodeAttr struct {
		id   transport.NodeID
		attr float64
	}
	attrs := make([]nodeAttr, 0, len(c.order))
	for _, id := range c.order {
		attrs = append(attrs, nodeAttr{id: id, attr: c.nodes[id].Attr()})
	}
	sort.Slice(attrs, func(i, j int) bool {
		if attrs[i].attr != attrs[j].attr {
			return attrs[i].attr < attrs[j].attr
		}
		return attrs[i].id < attrs[j].id
	})
	truth := make(map[transport.NodeID]int32, len(attrs))
	for rank, na := range attrs {
		truth[na.id] = int32(rank * k / len(attrs))
	}
	correct := 0
	for _, id := range c.order {
		if c.nodes[id].Slice() == truth[id] {
			correct++
		}
	}
	return float64(correct) / float64(len(c.order))
}

// ReplicaCount returns how many live nodes hold (key, version).
func (c *Cluster) ReplicaCount(key string, version uint64) int {
	count := 0
	for _, id := range c.order {
		if _, _, ok, err := c.nodes[id].Store().Get(key, version); err == nil && ok {
			count++
		}
	}
	return count
}

// String summarizes the cluster for logs.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster[n=%d t=%s events=%d]", len(c.order), c.Engine.Now(), c.Engine.Executed())
}
