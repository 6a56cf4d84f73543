package dataflasks

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/sim"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// defaultMailbox bounds a client's mailbox; overflow drops messages,
// which epidemic protocols tolerate by design.
const defaultMailbox = 4096

// clientIDBase keeps client ids clear of node ids while fitting the
// 32-bit origin field of request ids.
const clientIDBase NodeID = 0xC0000000

// Cluster is an in-process DataFlasks deployment: every node runs
// itself (core.Node.Start) over an in-memory fabric. It is the embedding
// and testing mode; protocol behaviour is identical to TCP deployments.
type Cluster struct {
	cfg    Config
	period time.Duration
	net    *transport.ChanNetwork

	mu      sync.Mutex
	nodes   map[NodeID]*core.Node
	clients []*Client
	nextID  NodeID
	nextCl  NodeID
	started bool
	closed  bool
	// goneDrops is what the removed nodes' mailboxes had dropped.
	goneDrops uint64
}

// ClusterOption customizes NewCluster.
type ClusterOption func(*Cluster)

// WithRoundPeriod sets the gossip round period (default 100ms — fast
// convergence for in-process clusters).
func WithRoundPeriod(d time.Duration) ClusterOption {
	return func(c *Cluster) {
		if d > 0 {
			c.period = d
		}
	}
}

// LatencyModel draws a one-way message delivery delay (see
// transport.LANLatency for the datacenter default).
type LatencyModel = transport.LatencyModel

// LANLatency approximates a datacenter network: 0.2ms base plus an
// exponential tail with 0.3ms mean, capped at 10ms.
func LANLatency() LatencyModel { return transport.LANLatency() }

// WithLatency makes the in-process fabric deliver every message after
// a real-time delay drawn from model, so network round trips cost what
// they would on a LAN. The default is immediate delivery; benchmarks
// that compare blocking against pipelined clients need the delay for
// the comparison to mean anything.
func WithLatency(model LatencyModel) ClusterOption {
	return func(c *Cluster) {
		if model == nil {
			return
		}
		var mu sync.Mutex
		rng := sim.RNG(c.cfg.Seed, 0x1a7e)
		c.net.SetDelay(func() time.Duration {
			mu.Lock()
			defer mu.Unlock()
			return model(rng)
		})
	}
}

// NewCluster creates a stopped cluster of n nodes. Call Start to run
// it and defer Stop.
func NewCluster(n int, cfg Config, opts ...ClusterOption) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataflasks: cluster size must be positive, got %d", n)
	}
	if cfg.SystemSize == 0 {
		cfg.SystemSize = n
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Cluster{
		cfg:    cfg,
		period: 100 * time.Millisecond,
		net:    transport.NewChanNetwork(),
		nodes:  make(map[NodeID]*core.Node, n),
		nextID: 1,
		nextCl: clientIDBase,
	}
	for _, opt := range opts {
		opt(c)
	}
	for i := 0; i < n; i++ {
		if _, err := c.addNodeLocked(); err != nil {
			return nil, err
		}
	}
	// Bootstrap every node with a few seeds drawn deterministically.
	rng := sim.RNG(cfg.Seed, 0xb007)
	ids := c.nodeIDsLocked()
	for _, id := range ids {
		c.nodes[id].Bootstrap(sim.PickSeeds(rng, ids, id))
	}
	return c, nil
}

// addNodeLocked creates and registers a node, not yet running: callers
// finish seeding it (Bootstrap) before they start it.
func (c *Cluster) addNodeLocked() (NodeID, error) {
	id := c.nextID
	c.nextID++
	var n *core.Node // set before anyone can know id to send to it
	sender, err := c.net.Attach(id, func(env transport.Envelope) { n.Deliver(env) })
	if err != nil {
		return 0, fmt.Errorf("dataflasks: attach node %s: %w", id, err)
	}
	nodeCfg := c.cfg.coreConfig()
	nodeCfg.RoundPeriod = c.period
	n = core.NewNode(id, nodeCfg, store.NewMemory(), sender)
	c.nodes[id] = n
	return id, nil
}

// Start starts every node. It is an error to Start twice.
func (c *Cluster) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("dataflasks: cluster is stopped")
	}
	if c.started {
		return errors.New("dataflasks: cluster already started")
	}
	c.started = true
	for _, n := range c.nodes {
		n.Start(context.Background())
	}
	return nil
}

// Stop terminates all clients and nodes and waits for their
// goroutines.
func (c *Cluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, cl := range c.clients {
		cl.Close()
	}
	c.net.Close()
	for _, n := range c.nodes {
		n.Stop()
	}
}

// NodeIDs returns the live node ids in ascending order.
func (c *Cluster) NodeIDs() []NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodeIDsLocked()
}

func (c *Cluster) nodeIDsLocked() []NodeID {
	ids := make([]NodeID, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// AddNode grows the cluster by one bootstrapped node (usable while
// running).
func (c *Cluster) AddNode() (NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, errors.New("dataflasks: cluster is stopped")
	}
	id, err := c.addNodeLocked()
	if err != nil {
		return 0, err
	}
	c.nodes[id].Bootstrap(sim.PickSeeds(sim.RNG(c.cfg.Seed, uint64(id)), c.nodeIDsLocked(), id))
	if c.started {
		c.nodes[id].Start(context.Background())
	}
	c.refreshContactsLocked()
	return id, nil
}

// RemoveNode crashes a node (fail-stop, no goodbye), exercising the
// churn tolerance.
func (c *Cluster) RemoveNode(id NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("dataflasks: unknown node %s", id)
	}
	delete(c.nodes, id)
	c.net.Detach(id)
	n.Stop()
	c.goneDrops += n.MailboxDropped()
	c.refreshContactsLocked()
	return nil
}

// refreshContactsLocked hands every client the present membership as its
// random contact list, on the client's loop: an attempt started after
// AddNode or RemoveNode returns never draws a node that is gone, and may
// draw one that is new.
func (c *Cluster) refreshContactsLocked() {
	ids := c.nodeIDsLocked()
	for _, cl := range c.clients {
		_ = cl.submit(func() { cl.contacts.SetNodes(ids) })
	}
}

// SliceOf reports a node's current slice claim (-1 while undecided), as
// its routing snapshot has it: what the node's loop last published.
func (c *Cluster) SliceOf(id NodeID) (int32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return -1, fmt.Errorf("dataflasks: unknown node %s", id)
	}
	return n.Slice(), nil
}

// ReplicaCount reports how many live nodes hold (key, version) — a
// testing/observability helper.
func (c *Cluster) ReplicaCount(key string, version uint64) int {
	c.mu.Lock()
	nodes := make([]*core.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	count := 0
	for _, n := range nodes {
		if _, _, ok, err := n.Store().Get(key, version); err == nil && ok {
			count++
		}
	}
	return count
}

// DumpStore returns node id's logical store inventory — key to stored
// versions in ascending order — a testing/observability helper like
// ReplicaCount, used by equivalence experiments to compare converged
// cluster states. Stores are safe for concurrent readers, so the dump
// may run while the cluster gossips; it is only a consistent snapshot
// once traffic has quiesced.
func (c *Cluster) DumpStore(id NodeID) (map[string][]uint64, error) {
	c.mu.Lock()
	n, ok := c.nodes[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dataflasks: unknown node %s", id)
	}
	out := make(map[string][]uint64)
	// ForEachIn visits each key's versions in ascending order.
	err := n.Store().ForEachIn(store.AllRanges(), func(key string, version uint64) bool {
		out[key] = append(out[key], version)
		return true
	})
	return out, err
}

// NewClient attaches a client endpoint to the cluster.
func (c *Cluster) NewClient() (*Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("dataflasks: cluster is stopped")
	}
	id := c.nextCl
	c.nextCl++
	cl := newLiveClient(c.period, c.cfg.slicesOrDefault())
	sender, err := c.net.Attach(id, cl.deliver)
	if err != nil {
		return nil, fmt.Errorf("dataflasks: attach client: %w", err)
	}
	rng := sim.RNG(c.cfg.Seed, uint64(id))
	cl.contacts = client.NewRandomLB(c.nodeIDsLocked(), rng)
	lb := client.NewDirectory(cl.contacts, c.cfg.slicesOrDefault(), rng, sender, nil)
	cl.run(client.NewCore(id, client.Config{PutAcks: c.cfg.clientPutAcks()}, sender, lb))
	c.clients = append(c.clients, cl)
	return cl, nil
}

// MailboxDropped returns how many messages the cluster discarded — a
// node's control mailbox or a client's mailbox was full, or the peer was
// already removed. Epidemic redundancy tolerates the loss, but a counter
// growing while membership is stable means event loops are not keeping
// up with the round period.
func (c *Cluster) MailboxDropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.net.Stats().Dropped + c.goneDrops
	for _, n := range c.nodes {
		total += n.MailboxDropped()
	}
	for _, cl := range c.clients {
		total += cl.MailboxDropped()
	}
	return total
}
