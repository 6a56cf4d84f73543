package pss

import (
	"context"
	"math/rand/v2"
	"testing"

	"dataflasks/internal/transport"
)

// fakeNet delivers messages synchronously in FIFO order — a minimal
// in-package harness for protocol logic tests.
type fakeNet struct {
	handlers map[transport.NodeID]*Cyclon
	queue    []transport.Envelope
	dead     map[transport.NodeID]bool
}

func newFakeNet() *fakeNet {
	return &fakeNet{
		handlers: make(map[transport.NodeID]*Cyclon),
		dead:     make(map[transport.NodeID]bool),
	}
}

func (f *fakeNet) sender(from transport.NodeID) transport.Sender {
	return transport.SenderFunc(func(_ context.Context, to transport.NodeID, msg interface{}) error {
		f.queue = append(f.queue, transport.Envelope{From: from, To: to, Msg: msg})
		return nil
	})
}

func (f *fakeNet) deliverAll() {
	for len(f.queue) > 0 {
		env := f.queue[0]
		f.queue = f.queue[1:]
		if f.dead[env.To] {
			continue
		}
		if p, ok := f.handlers[env.To]; ok {
			p.Handle(context.Background(), env.From, env.Msg)
		}
	}
}

// buildCyclonNet wires n Cyclon nodes in a line bootstrap (each knows
// its predecessor), the hardest starting topology.
func buildCyclonNet(t *testing.T, n int, cfg CyclonConfig) (*fakeNet, []*Cyclon) {
	t.Helper()
	net := newFakeNet()
	nodes := make([]*Cyclon, 0, n)
	for i := 1; i <= n; i++ {
		id := transport.NodeID(i)
		c := NewCyclon(id, cfg, net.sender(id), rand.New(rand.NewPCG(7, uint64(i))), nil)
		net.handlers[id] = c
		nodes = append(nodes, c)
	}
	for i, c := range nodes {
		c.Bootstrap([]transport.NodeID{transport.NodeID((i+1)%n + 1)})
	}
	return net, nodes
}

func runRounds(net *fakeNet, nodes []*Cyclon, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, c := range nodes {
			c.Tick(context.Background())
		}
		net.deliverAll()
	}
}

func TestCyclonViewsFillAndStayValid(t *testing.T) {
	cfg := CyclonConfig{ViewSize: 8, ShuffleLen: 4}
	net, nodes := buildCyclonNet(t, 30, cfg)
	runRounds(net, nodes, 20)

	for _, c := range nodes {
		if c.view.Len() < cfg.ViewSize/2 {
			t.Errorf("node %v view has %d entries, want >= %d", c.self, c.view.Len(), cfg.ViewSize/2)
		}
		if err := c.view.CheckInvariants(c.self); err != nil {
			t.Errorf("node %v: %v", c.self, err)
		}
	}
}

func TestCyclonConnectivity(t *testing.T) {
	net, nodes := buildCyclonNet(t, 40, CyclonConfig{ViewSize: 8})
	runRounds(net, nodes, 25)

	// BFS over the union of views from node 1: all nodes reachable.
	adj := make(map[transport.NodeID][]transport.NodeID)
	for _, c := range nodes {
		adj[c.self] = c.view.IDs()
	}
	seen := map[transport.NodeID]bool{nodes[0].self: true}
	frontier := []transport.NodeID{nodes[0].self}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, peer := range adj[next] {
			if !seen[peer] {
				seen[peer] = true
				frontier = append(frontier, peer)
			}
		}
	}
	if len(seen) != len(nodes) {
		t.Errorf("overlay reaches %d of %d nodes", len(seen), len(nodes))
	}
}

func TestCyclonEvictsDeadPeers(t *testing.T) {
	net, nodes := buildCyclonNet(t, 20, CyclonConfig{ViewSize: 6})
	runRounds(net, nodes, 15)

	victim := nodes[0].self
	net.dead[victim] = true
	runRounds(net, nodes[1:], 3*6+5) // several view lifetimes

	for _, c := range nodes[1:] {
		if c.view.Contains(victim) {
			t.Errorf("node %v still references dead %v after 23 rounds", c.self, victim)
		}
	}
}

func TestCyclonObserverSeesStream(t *testing.T) {
	net, nodes := buildCyclonNet(t, 10, CyclonConfig{ViewSize: 5})
	var observed int
	nodes[0].SetObserver(func(d Descriptor) {
		observed++
		if d.ID == nodes[0].self {
			t.Error("observer saw a self descriptor")
		}
	})
	runRounds(net, nodes, 10)
	if observed == 0 {
		t.Error("observer never called")
	}
}

func TestCyclonSelfInfoPiggybacked(t *testing.T) {
	net := newFakeNet()
	mkNode := func(id transport.NodeID, attr float64, slice int32) *Cyclon {
		c := NewCyclon(id, CyclonConfig{ViewSize: 4}, net.sender(id),
			rand.New(rand.NewPCG(1, uint64(id))),
			func() (float64, int32) { return attr, slice })
		net.handlers[id] = c
		return c
	}
	a := mkNode(1, 0.25, 3)
	b := mkNode(2, 0.75, 1)
	a.Bootstrap([]transport.NodeID{2})
	b.Bootstrap([]transport.NodeID{1})

	a.Tick(context.Background())
	net.deliverAll()

	d, ok := b.view.Get(1)
	if !ok {
		t.Fatal("b never learned a")
	}
	if d.Attr != 0.25 || d.Slice != 3 {
		t.Errorf("piggyback = attr %v slice %d, want 0.25/3", d.Attr, d.Slice)
	}
}

func TestCyclonRandomPeers(t *testing.T) {
	net, nodes := buildCyclonNet(t, 20, CyclonConfig{ViewSize: 8})
	runRounds(net, nodes, 10)
	peers := nodes[0].RandomPeers(3)
	if len(peers) != 3 {
		t.Fatalf("RandomPeers(3) = %d peers", len(peers))
	}
	for _, p := range peers {
		if p == nodes[0].self {
			t.Error("RandomPeers returned self")
		}
	}
}

func TestBootstrapSkipsSelf(t *testing.T) {
	c := NewCyclon(1, CyclonConfig{ViewSize: 4}, newFakeNet().sender(1),
		rand.New(rand.NewPCG(1, 1)), nil)
	c.Bootstrap([]transport.NodeID{1, 2, 3})
	if c.view.Contains(1) {
		t.Error("bootstrap admitted self")
	}
	if c.view.Len() != 2 {
		t.Errorf("view = %d entries, want 2", c.view.Len())
	}
}

func TestCyclonHandleForeignMessage(t *testing.T) {
	c := NewCyclon(1, CyclonConfig{}, newFakeNet().sender(1),
		rand.New(rand.NewPCG(1, 1)), nil)
	if c.Handle(context.Background(), 2, "not a pss message") {
		t.Error("Handle claimed a foreign message")
	}
}
