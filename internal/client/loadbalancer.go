// Package client implements the DataFlasks client library (paper §V):
// the API component that contacts a node supplied by the Load Balancer,
// and the reply handler that de-duplicates the multiple answers
// epidemic dissemination produces. The core is an event-driven state
// machine so the same code serves discrete-event simulations and the
// blocking public API.
package client

import (
	"math/rand/v2"
	"slices"
	"sync"

	"dataflasks/internal/transport"
)

// LoadBalancer chooses the contact node for a request (paper §V; the
// quality of this choice drives total message cost, §VII).
type LoadBalancer interface {
	// Contact returns a node to send the request for key to.
	Contact(key string) (transport.NodeID, bool)
}

// RandomLB is the paper's baseline: a uniformly random contact node.
// Safe for concurrent use.
type RandomLB struct {
	mu    sync.RWMutex
	nodes []transport.NodeID
	rng   *rand.Rand
}

var _ LoadBalancer = (*RandomLB)(nil)

// NewRandomLB creates a random load balancer over the given contact
// list (copied).
func NewRandomLB(nodes []transport.NodeID, rng *rand.Rand) *RandomLB {
	cp := make([]transport.NodeID, len(nodes))
	copy(cp, nodes)
	return &RandomLB{nodes: cp, rng: rng}
}

// SetNodes replaces the contact list (membership refresh).
func (l *RandomLB) SetNodes(nodes []transport.NodeID) {
	cp := make([]transport.NodeID, len(nodes))
	copy(cp, nodes)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nodes = cp
}

// Contact implements LoadBalancer.
func (l *RandomLB) Contact(string) (transport.NodeID, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.nodes) == 0 {
		return 0, false
	}
	return l.nodes[l.rng.IntN(len(l.nodes))], true
}

// contactOther is Contact drawing again while it draws not, if the list
// holds another node (not 0 names none). A draw that misses not costs
// the random stream what Contact's does.
func (l *RandomLB) contactOther(not transport.NodeID) (transport.NodeID, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.nodes) == 0 {
		return 0, false
	}
	for {
		n := l.nodes[l.rng.IntN(len(l.nodes))]
		if n != not || !slices.ContainsFunc(l.nodes, func(o transport.NodeID) bool { return o != not }) {
			return n, true
		}
	}
}
