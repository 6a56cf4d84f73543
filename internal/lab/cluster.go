// Package lab assembles simulated DataFlasks (and baseline DHT)
// clusters on the discrete-event engine and implements every experiment
// of the paper's evaluation plus this reproduction's extensions. It is
// the Minha-equivalent test bench: thousands of unmodified protocol
// nodes in virtual time on one machine, bit-for-bit reproducible per
// seed.
//
// population is the simulator scaffold (engine, fabric, ids, tickers,
// seed draw, churn surface); Cluster embeds it over DataFlasks nodes and
// adds clients, the slice surface and metrics collection, DHTCluster
// embeds it over the structured baseline's. RunWorkload drives the
// paper's §VI methodology (warm up, preload, measure, drain) with
// YCSB-style mixes.
//
// Experiments (table.go) is the one table of what flaskbench runs: per
// -exp name the E-number, the run — which owns both scales' parameters,
// writes the heading and the table, and returns the measurements — and
// the gate. A gate is a function next to the experiment's code (the
// *Gate functions) that lists what the result must hold and does not;
// the run puts its findings in Report.Broken, flaskbench turns them
// into its exit status, and this package's tests call the same
// functions on smaller runs, so a threshold is written once.
// Determinism is the point: virtual time makes throughput and bandwidth
// ratios exact enough to fail a build on, and testdata/*.golden pins the
// -quick -seed 42 output of every row that does not read a wall clock.
package lab

import (
	"context"
	"fmt"
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
	// overridden per cluster/node, and its Store is not read: a node's
	// engine comes from Store and StoreDir, or StoreFactory.
	Node core.Config
	// Seed drives every random choice in the cluster.
	Seed uint64
	// LossRate drops messages uniformly at random.
	LossRate float64
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

// Cluster is a simulated DataFlasks deployment: the population scaffold
// over core.Node, plus clients, the slice surface and metrics collection.
type Cluster struct {
	population[*core.Node]

	// ctx is the cluster-lifetime context threaded into every node's
	// Tick and HandleMessage; the simulated fabric never blocks, so it
	// only carries the plumbing contract, not cancellation pressure.
	ctx context.Context

	cfg ClusterConfig
	// contacts counts the requests clients addressed to each node, by
	// the slice of the request's key, since the last ResetMetrics (E7's
	// contact spread).
	contacts map[contact]int
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
	if cfg.StoreFactory == nil {
		cfg.StoreFactory = StoreFactoryFor(cfg.Store, cfg.StoreDir)
	}
	c := &Cluster{ctx: context.Background(), cfg: cfg, contacts: make(map[contact]int)}
	c.population = newPopulation(
		transport.SimNetworkConfig{LossRate: cfg.LossRate, Seed: cfg.Seed}, 0x1ab,
		func(n *core.Node, env transport.Envelope) { n.HandleMessage(c.ctx, env) },
		func(n *core.Node) { n.Tick(c.ctx) })
	c.populate(cfg.N, c.node(nil))
	return c
}

// node builds the cluster's nodes, mod applied to each one's config
// (e.g. a joiner that bootstraps via segment streaming while the rest
// of the population does not).
func (c *Cluster) node(mod func(*core.Config)) func(transport.NodeID, transport.Sender) *core.Node {
	return func(id transport.NodeID, sender transport.Sender) *core.Node {
		nodeCfg := c.cfg.Node
		nodeCfg.Seed = c.cfg.Seed
		if !c.cfg.AutoSystemSize {
			nodeCfg.SystemSize = c.cfg.N
		}
		if mod != nil {
			mod(&nodeCfg)
		}
		return core.NewNode(id, nodeCfg, c.cfg.StoreFactory(id), sender)
	}
}

// Node returns one node by id (nil when dead/unknown).
func (c *Cluster) Node(id transport.NodeID) *core.Node { return c.nodes[id] }

// Close releases every alive node's store. Memory-backed clusters do
// not need it; log-backed ones hold open files (and a compaction
// goroutine) per node until closed.
func (c *Cluster) Close() {
	for _, id := range c.order {
		_ = c.nodes[id].Store().Close()
	}
}

// Spawn implements churn.Target: a fresh node joins, bootstrapped from
// live seeds.
func (c *Cluster) Spawn() transport.NodeID { return c.join(c.node(nil)) }

// SpawnWith is Spawn with a config modifier for the fresh node.
func (c *Cluster) SpawnWith(mod func(*core.Config)) transport.NodeID { return c.join(c.node(mod)) }

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
	var cl *client.Core
	c.attachClient(func(id transport.NodeID, raw transport.Sender) (func(transport.Envelope), func()) {
		sender := transport.SenderFunc(func(ctx context.Context, to transport.NodeID, msg interface{}) error {
			if key, ok := core.RequestKey(msg); ok { // mate queries are not requests
				c.contacts[contact{slicing.KeySlice(key, c.sliceCount()), to}]++
			}
			return raw.Send(ctx, to, msg)
		})
		if lb == nil {
			lb = client.NewDirectory(c.RandomLB(), c.sliceCount(), sim.RNG(c.cfg.Seed, uint64(id)^0xd1c7), sender, nil)
		}
		cl = client.NewCore(id, cfg, sender, lb)
		return cl.HandleMessage, cl.Tick
	})
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
