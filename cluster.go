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

// defaultMailbox bounds each node's in-process mailbox; overflow drops
// messages, which epidemic protocols tolerate by design.
const defaultMailbox = 4096

// clientIDBase keeps client ids clear of node ids while fitting the
// 32-bit origin field of request ids.
const clientIDBase NodeID = 0xC0000000

// Cluster is an in-process DataFlasks deployment: every node runs as
// one goroutine over an in-memory fabric. It is the embedding and
// testing mode; protocol behaviour is identical to TCP deployments.
type Cluster struct {
	cfg    Config
	period time.Duration
	net    *transport.ChanNetwork

	mu      sync.Mutex
	nodes   map[NodeID]*core.Node
	stops   map[NodeID]chan struct{}
	clients []*Client
	nextID  NodeID
	nextCl  NodeID
	started bool
	closed  bool
	// deferredRuns holds node loops created before Start.
	deferredRuns []func()

	wg sync.WaitGroup
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
		stops:  make(map[NodeID]chan struct{}, n),
		nextID: 1,
		nextCl: clientIDBase,
	}
	for _, opt := range opts {
		opt(c)
	}
	for i := 0; i < n; i++ {
		if _, _, err := c.addNodeLocked(); err != nil {
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

// addNodeLocked creates and registers a node (not yet running). The
// returned closure launches the node's loop; on a stopped cluster it
// is nil (Start consumes the deferred list instead). Callers must
// finish seeding the node (Bootstrap) before invoking it — the loop
// goroutine reads protocol state from its first instant.
func (c *Cluster) addNodeLocked() (NodeID, func(), error) {
	id := c.nextID
	c.nextID++
	mailbox, sender, err := c.net.Attach(id, defaultMailbox)
	if err != nil {
		return 0, nil, fmt.Errorf("dataflasks: attach node %s: %w", id, err)
	}
	nodeCfg := c.cfg.coreConfig()
	nodeCfg.RoundPeriod = c.period
	n := core.NewNode(id, nodeCfg, store.NewMemory(), sender)
	c.nodes[id] = n
	stop := make(chan struct{})
	c.stops[id] = stop
	run := func() { c.runNode(n, mailbox, stop) }
	if !c.started {
		// Defer the goroutine to Start; remember the mailbox by
		// closure.
		c.deferredRuns = append(c.deferredRuns, run)
		run = nil
	}
	return id, run, nil
}

func (c *Cluster) runNode(n *core.Node, mailbox <-chan transport.Envelope, stop chan struct{}) {
	// Per-node lifecycle context: bounds every send the node makes.
	ctx, cancel := context.WithCancel(context.Background())
	// Shards start here, not on the loop goroutine: SliceOf, from any
	// goroutine, may only read the snapshot of a node whose shards run,
	// and it may be called the moment Start or AddNode returns.
	n.StartShards(ctx)
	// Data-plane requests skip the loop: the fabric hands them to their
	// shard's mailbox directly.
	c.net.SetDirect(n.ID(), n.DispatchData)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// StopShards runs before cancel (LIFO defers) so the shard
		// drain's sends still reach the fabric.
		defer cancel()
		defer n.StopShards()
		ticker := time.NewTicker(c.period)
		defer ticker.Stop()
		for {
			select {
			case env, ok := <-mailbox:
				if !ok {
					return
				}
				n.HandleMessage(ctx, env)
			case <-ticker.C:
				n.Tick(ctx)
			case <-stop:
				return
			}
		}
	}()
}

// Start launches every node goroutine. It is an error to Start twice.
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
	for _, run := range c.deferredRuns {
		run()
	}
	c.deferredRuns = nil
	return nil
}

// Stop terminates all clients and nodes and waits for their
// goroutines.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()

	for _, cl := range clients {
		cl.Close()
	}
	c.net.Close() // closes every mailbox; node loops drain and exit
	c.wg.Wait()
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
	id, run, err := c.addNodeLocked()
	if err != nil {
		return 0, err
	}
	c.nodes[id].Bootstrap(sim.PickSeeds(sim.RNG(c.cfg.Seed, uint64(id)), c.nodeIDsLocked(), id))
	if run != nil {
		// On a running cluster the loop launches only now, after the
		// bootstrap seeding above — the loop goroutine reads protocol
		// state immediately.
		run()
	}
	return id, nil
}

// RemoveNode crashes a node (fail-stop, no goodbye), exercising the
// churn tolerance.
func (c *Cluster) RemoveNode(id NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[id]; !ok {
		return fmt.Errorf("dataflasks: unknown node %s", id)
	}
	delete(c.nodes, id)
	if stop, ok := c.stops[id]; ok {
		close(stop)
		delete(c.stops, id)
	}
	c.net.Detach(id)
	return nil
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
	err := n.Store().ForEach(func(key string, version uint64) bool {
		out[key] = append(out[key], version)
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, vs := range out {
		slices.Sort(vs)
	}
	return out, nil
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
	mailbox, sender, err := c.net.Attach(id, defaultMailbox)
	if err != nil {
		return nil, fmt.Errorf("dataflasks: attach client: %w", err)
	}
	rng := sim.RNG(c.cfg.Seed, uint64(id))
	lb := client.NewDirectory(client.NewRandomLB(c.nodeIDsLocked(), rng), c.cfg.slicesOrDefault(), rng, sender, nil)
	cl := newLiveClient(id, client.Config{PutAcks: c.cfg.clientPutAcks()}, sender, lb, mailbox, c.period, c.cfg.slicesOrDefault(),
		func() uint64 { return c.net.DroppedFor(id) })
	c.clients = append(c.clients, cl)
	return cl, nil
}

// MailboxDropped returns how many messages the in-process fabric
// discarded — a node's (or client's) mailbox was full, or the peer was
// already removed. Epidemic redundancy tolerates the loss, but a
// counter growing while membership is stable means event loops are not
// keeping up with the round period.
func (c *Cluster) MailboxDropped() uint64 {
	return c.net.Stats().Dropped
}
