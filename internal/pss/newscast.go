package pss

import (
	"context"
	"math/rand/v2"

	"dataflasks/internal/transport"
)

// NewscastConfig tunes the Newscast protocol.
type NewscastConfig struct {
	// ViewSize bounds the partial view.
	ViewSize int
	// SelfAddr is this node's dialable address, gossiped with its
	// descriptor (empty in simulations).
	SelfAddr string
}

func (c *NewscastConfig) defaults() {
	if c.ViewSize <= 0 {
		c.ViewSize = 20
	}
}

// Newscast implements the robust gossip membership protocol of Jelasity
// & van Steen: each round a node picks a uniformly random neighbour,
// both exchange their full views plus a fresh self-descriptor, and both
// keep the freshest ViewSize entries. Freshness is tracked with the Age
// field (0 = freshest), aged once per local round, which preserves the
// protocol's newest-wins merge without synchronized clocks.
//
// Newscast is not safe for concurrent use; the owning node drives it
// from its single event loop.
type Newscast struct {
	self     transport.NodeID
	cfg      NewscastConfig
	view     View
	out      transport.Sender
	rng      *rand.Rand
	selfInfo SelfInfo
	observer Observer
}

var _ Protocol = (*Newscast)(nil)

// NewNewscast creates a Newscast instance for self.
func NewNewscast(self transport.NodeID, cfg NewscastConfig, out transport.Sender, rng *rand.Rand, selfInfo SelfInfo) *Newscast {
	cfg.defaults()
	if out == nil {
		panic("pss: NewNewscast requires a sender")
	}
	if rng == nil {
		panic("pss: NewNewscast requires an rng")
	}
	if selfInfo == nil {
		selfInfo = func() (float64, int32) { return 0, SliceUnknown }
	}
	return &Newscast{self: self, cfg: cfg, out: out, rng: rng, selfInfo: selfInfo}
}

// Bootstrap implements Protocol.
func (n *Newscast) Bootstrap(seeds []transport.NodeID) {
	for _, id := range seeds {
		if id == n.self {
			continue
		}
		n.view.Add(Descriptor{ID: id, Age: 0, Slice: SliceUnknown})
	}
	n.view.TruncateOldest(n.cfg.ViewSize)
}

// SetObserver implements Protocol.
func (n *Newscast) SetObserver(o Observer) { n.observer = o }

// View implements Protocol.
func (n *Newscast) View() []Descriptor { return n.view.Entries() }

// Alive implements Protocol.
func (n *Newscast) Alive() int { return n.view.Len() }

// RandomPeers implements Protocol.
func (n *Newscast) RandomPeers(count int) []transport.NodeID {
	sub := n.view.RandomSubset(n.rng, count)
	out := make([]transport.NodeID, len(sub))
	for i, d := range sub {
		out[i] = d.ID
	}
	return out
}

func (n *Newscast) selfDescriptor() Descriptor {
	attr, slice := n.selfInfo()
	return Descriptor{ID: n.self, Age: 0, Attr: attr, Slice: slice, Addr: n.cfg.SelfAddr}
}

// Tick implements Protocol: exchange views with one random neighbour.
func (n *Newscast) Tick(ctx context.Context) {
	n.view.IncrementAges()
	target, ok := n.view.Random(n.rng)
	if !ok {
		return
	}
	sample := append(n.view.Entries(), n.selfDescriptor())
	// No retries: view turnover handles dead peers, and the node's
	// sender counts the failure.
	_ = n.out.Send(ctx, target.ID, &ShuffleRequest{Sample: sample}) //flasks:fire-and-forget
}

// Handle implements Protocol.
func (n *Newscast) Handle(ctx context.Context, from transport.NodeID, msg interface{}) bool {
	switch m := msg.(type) {
	case *ShuffleRequest:
		reply := append(n.view.Entries(), n.selfDescriptor())
		_ = n.out.Send(ctx, from, &ShuffleReply{Sample: reply}) //flasks:fire-and-forget see Tick
		n.merge(m.Sample)
		return true
	case *ShuffleReply:
		n.merge(m.Sample)
		return true
	default:
		return false
	}
}

// merge folds the received view in and keeps the freshest entries.
func (n *Newscast) merge(received []Descriptor) {
	for _, d := range received {
		if d.ID == n.self {
			continue
		}
		if n.observer != nil {
			n.observer(d)
		}
		n.view.Add(d)
	}
	n.view.TruncateOldest(n.cfg.ViewSize)
}
