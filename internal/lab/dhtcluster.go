package lab

import (
	"dataflasks/internal/churn"
	"dataflasks/internal/dht"
	"dataflasks/internal/sim"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// DHTCluster is the population scaffold over the structured baseline's
// nodes, so the comparison experiment drives both stores with identical
// churn and workloads.
type DHTCluster struct {
	population[*dht.Node]

	cfg  dht.Config
	seed uint64
}

var _ churn.Target = (*DHTCluster)(nil)

// NewDHTCluster builds and bootstraps a baseline cluster.
func NewDHTCluster(n int, cfg dht.Config, seed uint64) *DHTCluster {
	c := &DHTCluster{cfg: cfg, seed: seed}
	c.population = newPopulation(transport.SimNetworkConfig{Seed: seed}, 0xd47,
		func(n *dht.Node, env transport.Envelope) { n.HandleMessage(env) },
		(*dht.Node).Tick)
	c.populate(n, c.node)
	return c
}

func (c *DHTCluster) node(id transport.NodeID, sender transport.Sender) *dht.Node {
	cfg := c.cfg
	cfg.Seed = c.seed
	return dht.NewNode(id, cfg, store.NewMemory(), sender)
}

// Spawn implements churn.Target.
func (c *DHTCluster) Spawn() transport.NodeID { return c.join(c.node) }

// NewClient attaches a baseline client.
func (c *DHTCluster) NewClient(cfg dht.ClientConfig) *dht.Client {
	var cl *dht.Client
	c.attachClient(func(id transport.NodeID, sender transport.Sender) (func(transport.Envelope), func()) {
		cl = dht.NewClient(id, cfg, sender, c.AliveIDs(), sim.RNG(c.seed, uint64(id)))
		return cl.HandleMessage, cl.Tick
	})
	return cl
}

// ResetMetrics zeroes node counters.
func (c *DHTCluster) ResetMetrics() {
	for _, n := range c.nodes {
		n.Metrics().Reset()
	}
}
