package pss

import (
	"context"
	"math/rand/v2"

	"dataflasks/internal/transport"
)

// CyclonConfig tunes the Cyclon shuffle protocol.
type CyclonConfig struct {
	// ViewSize bounds the partial view (paper §II: ln(N)+c entries
	// suffice for epidemic dissemination; 20 is the customary default).
	ViewSize int
	// ShuffleLen is how many descriptors each exchange carries.
	ShuffleLen int
	// SelfAddr is this node's dialable address, gossiped with its
	// descriptor (empty in simulations).
	SelfAddr string
}

func (c *CyclonConfig) defaults() {
	if c.ViewSize <= 0 {
		c.ViewSize = 20
	}
	if c.ShuffleLen <= 0 {
		c.ShuffleLen = c.ViewSize/2 + 1
	}
	if c.ShuffleLen > c.ViewSize {
		c.ShuffleLen = c.ViewSize
	}
}

// Cyclon implements inexpensive membership management via view shuffles
// (Voulgaris, Gavidia, van Steen). Each round a node contacts its oldest
// neighbour, trades a random sample including a fresh self-descriptor,
// and replaces the entries it sent with the entries it received. Dead
// peers age out because initiating a shuffle removes the target: if it
// never answers, it is simply gone from the view.
//
// Cyclon is not safe for concurrent use; the owning node drives it from
// its single event loop.
type Cyclon struct {
	self     transport.NodeID
	cfg      CyclonConfig
	view     View
	out      transport.Sender
	rng      *rand.Rand
	selfInfo SelfInfo
	observer Observer

	// One shuffle is outstanding at a time; sent descriptors are
	// replaced by the reply's.
	pendingPeer transport.NodeID
	pendingSent []Descriptor
	hasPending  bool
}

// NewCyclon creates a Cyclon instance for self. selfInfo may be nil when
// the deployment does not use slicing metadata.
func NewCyclon(self transport.NodeID, cfg CyclonConfig, out transport.Sender, rng *rand.Rand, selfInfo SelfInfo) *Cyclon {
	cfg.defaults()
	if out == nil {
		panic("pss: NewCyclon requires a sender")
	}
	if rng == nil {
		panic("pss: NewCyclon requires an rng")
	}
	if selfInfo == nil {
		selfInfo = func() (float64, int32) { return 0, SliceUnknown }
	}
	return &Cyclon{self: self, cfg: cfg, out: out, rng: rng, selfInfo: selfInfo}
}

// Bootstrap seeds the view with initial contacts.
func (c *Cyclon) Bootstrap(seeds []transport.NodeID) {
	for _, id := range seeds {
		if id == c.self {
			continue
		}
		c.view.Add(Descriptor{ID: id, Age: 0, Slice: SliceUnknown})
	}
	c.view.TruncateOldest(c.cfg.ViewSize)
}

// SetObserver registers the descriptor-stream consumer. Only one
// observer is supported; the node runtime fans out internally.
func (c *Cyclon) SetObserver(o Observer) { c.observer = o }

// View returns a copy of the current partial view.
func (c *Cyclon) View() []Descriptor { return c.view.Entries() }

// RandomPeers returns up to n distinct peers drawn uniformly from the
// view.
func (c *Cyclon) RandomPeers(n int) []transport.NodeID {
	sub := c.view.RandomSubset(c.rng, n)
	out := make([]transport.NodeID, len(sub))
	for i, d := range sub {
		out[i] = d.ID
	}
	return out
}

// selfDescriptor stamps a fresh descriptor for the local node.
func (c *Cyclon) selfDescriptor() Descriptor {
	attr, slice := c.selfInfo()
	return Descriptor{ID: c.self, Age: 0, Attr: attr, Slice: slice, Addr: c.cfg.SelfAddr}
}

// Tick runs one gossip round: one shuffle initiation. ctx bounds the
// round's sends.
func (c *Cyclon) Tick(ctx context.Context) {
	c.view.IncrementAges()
	target, ok := c.view.Oldest()
	if !ok {
		return
	}
	// Removing the target is Cyclon's failure handling: only a reply
	// reinstates a (fresh) descriptor for it.
	c.view.Remove(target.ID)

	sample := c.view.RandomSubset(c.rng, c.cfg.ShuffleLen-1)
	sample = append(sample, c.selfDescriptor())

	c.pendingPeer = target.ID
	c.pendingSent = sample
	c.hasPending = true
	// Epidemic rounds never retry: view turnover handles dead peers, and
	// the node's sender counts the failure.
	_ = c.out.Send(ctx, target.ID, &ShuffleRequest{Sample: sample}) //flasks:fire-and-forget
}

// Handle processes a message; it reports false when the message is not
// a peer-sampling message. ctx bounds the shuffle reply it sends.
func (c *Cyclon) Handle(ctx context.Context, from transport.NodeID, msg interface{}) bool {
	switch m := msg.(type) {
	case *ShuffleRequest:
		c.onRequest(ctx, from, m)
		return true
	case *ShuffleReply:
		c.onReply(from, m)
		return true
	default:
		return false
	}
}

func (c *Cyclon) onRequest(ctx context.Context, from transport.NodeID, m *ShuffleRequest) {
	// Answer with a random sample of our own. A fresh self-descriptor
	// tops up short replies: without it, two nodes that both just
	// shuffled their last entry away would trade empty samples forever
	// and a sparsely-bootstrapped overlay could never grow.
	reply := c.view.RandomSubset(c.rng, c.cfg.ShuffleLen-1)
	reply = append(reply, c.selfDescriptor())
	_ = c.out.Send(ctx, from, &ShuffleReply{Sample: reply}) //flasks:fire-and-forget see Tick
	c.merge(m.Sample, reply)
}

func (c *Cyclon) onReply(from transport.NodeID, m *ShuffleReply) {
	sent := []Descriptor(nil)
	if c.hasPending && c.pendingPeer == from {
		sent = c.pendingSent
		c.hasPending = false
		c.pendingSent = nil
	}
	c.merge(m.Sample, sent)
}

// merge folds received descriptors into the view: entries for self are
// skipped, known entries keep the younger copy, and when the view is
// full, descriptors we sent away in this exchange are evicted first (in
// the order they were sent, which keeps simulations deterministic),
// then the oldest.
func (c *Cyclon) merge(received, sentAway []Descriptor) {
	sentQueue := make([]transport.NodeID, 0, len(sentAway))
	for _, d := range sentAway {
		if d.ID != c.self {
			sentQueue = append(sentQueue, d.ID)
		}
	}
	for _, d := range received {
		if d.ID == c.self {
			continue
		}
		if c.observer != nil {
			c.observer(d)
		}
		if c.view.Contains(d.ID) {
			c.view.Add(d) // keeps the younger copy
			continue
		}
		if c.view.Len() < c.cfg.ViewSize {
			c.view.Add(d)
			continue
		}
		if evicted := c.evictSent(&sentQueue); evicted {
			c.view.Add(d)
			continue
		}
		// View full of entries we did not send: replace the oldest if
		// the incoming descriptor is fresher.
		oldest, _ := c.view.Oldest()
		if d.Age < oldest.Age {
			c.view.Remove(oldest.ID)
			c.view.Add(d)
		}
	}
}

// evictSent removes the next view entry that was shipped out in the
// current exchange, freeing a slot.
func (c *Cyclon) evictSent(sentQueue *[]transport.NodeID) bool {
	q := *sentQueue
	for len(q) > 0 {
		id := q[0]
		q = q[1:]
		if c.view.Remove(id) {
			*sentQueue = q
			return true
		}
	}
	*sentQueue = q
	return false
}
