package slicing

import (
	"context"
	"math/rand/v2"

	"dataflasks/internal/transport"
)

// SwapRequest proposes an ordered-slicing exchange: the initiator sends
// its attribute and current random value.
type SwapRequest struct {
	Attr float64
	X    float64
	// Seq matches replies to requests: a reply delayed past the next
	// round must not complete a newer exchange.
	Seq uint32
}

// SwapReply answers with the responder's pre-exchange state and whether
// it performed the swap. Busy refuses the exchange (the responder has
// its own exchange in flight), which keeps the value multiset a
// permutation under concurrency.
type SwapReply struct {
	Attr    float64
	X       float64
	Swapped bool
	Busy    bool
	Seq     uint32
}

// SwapSlicerConfig tunes the ordered-swap slicer.
type SwapSlicerConfig struct {
	// Slices is the initial slice count k.
	Slices int
}

// PartnerFunc supplies a random gossip partner (typically from the
// peer-sampling view).
type PartnerFunc func() (transport.NodeID, bool)

// SwapSlicer implements Jelasity–Kermarrec ordered slicing: every node
// draws a random value x ∈ [0,1); each round it compares (attribute, x)
// order with a random partner and swaps the x values when they disagree.
// At convergence the sorted order of x matches the sorted order of
// attributes, so floor(x·k) is the node's slice. It costs two messages
// per node per round, which is why DataFlasks prefers the message-free
// rank estimator; it is included as the classic alternative and for the
// ablation experiments.
//
// Concurrency control: a node with its own exchange outstanding answers
// Busy instead of swapping. The initiator's x is therefore stable
// between request and reply, and the responder commits atomically in
// its handler, so swaps preserve the global multiset of values (an
// exact permutation), which the slice mapping depends on. A lost reply
// merely wastes a round: the pending flag clears at the next Tick.
//
// SwapSlicer is not safe for concurrent use by multiple goroutines.
type SwapSlicer struct {
	self    transport.NodeID
	attr    float64
	x       float64
	k       int
	out     transport.Sender
	partner PartnerFunc
	rng     *rand.Rand

	hasPending  bool
	pendingPeer transport.NodeID
	seq         uint32
}

var _ Slicer = (*SwapSlicer)(nil)

// NewSwapSlicer creates an ordered-swap slicer; rng seeds the node's
// random value.
func NewSwapSlicer(self transport.NodeID, attr float64, cfg SwapSlicerConfig, out transport.Sender, partner PartnerFunc, rng *rand.Rand) *SwapSlicer {
	if cfg.Slices <= 0 {
		cfg.Slices = 1
	}
	if out == nil || partner == nil || rng == nil {
		panic("slicing: NewSwapSlicer requires sender, partner func and rng")
	}
	return &SwapSlicer{
		self:    self,
		attr:    attr,
		x:       rng.Float64(),
		k:       cfg.Slices,
		out:     out,
		partner: partner,
		rng:     rng,
	}
}

// X returns the node's current random value (exported for tests and the
// convergence experiment).
func (s *SwapSlicer) X() float64 { return s.x }

// Slice implements Slicer.
func (s *SwapSlicer) Slice() int32 { return fracToSlice(s.x, s.k) }

// SliceCount implements Slicer.
func (s *SwapSlicer) SliceCount() int { return s.k }

// SetSliceCount implements Slicer. Non-positive counts are ignored.
func (s *SwapSlicer) SetSliceCount(k int) {
	if k > 0 {
		s.k = k
	}
}

// Observe implements Slicer; the swap slicer ignores the passive stream.
func (s *SwapSlicer) Observe(transport.NodeID, float64) {}

// Tick implements Slicer: initiate one exchange. A still-outstanding
// exchange from the previous round (lost reply, dead partner) is
// abandoned first.
func (s *SwapSlicer) Tick(ctx context.Context) {
	s.hasPending = false
	peer, ok := s.partner()
	if !ok || peer == s.self {
		return
	}
	s.seq++
	s.hasPending = true
	s.pendingPeer = peer
	// A lost exchange costs a round (the pending flag clears at the next
	// Tick); the node's sender counts the failure.
	_ = s.out.Send(ctx, peer, &SwapRequest{Attr: s.attr, X: s.x, Seq: s.seq}) //flasks:fire-and-forget
}

// Handle implements Slicer.
func (s *SwapSlicer) Handle(ctx context.Context, from transport.NodeID, msg interface{}) bool {
	switch m := msg.(type) {
	case *SwapRequest:
		if s.hasPending {
			// Our own exchange is in flight; swapping now would
			// invalidate the value we promised the other partner.
			_ = s.out.Send(ctx, from, &SwapReply{Busy: true, Seq: m.Seq}) //flasks:fire-and-forget see Tick
			return true
		}
		myAttr, myX := s.attr, s.x
		swapped := misordered(m.Attr, from, m.X, myAttr, s.self, myX)
		if swapped {
			s.x = m.X // commit our half atomically
		}
		_ = s.out.Send(ctx, from, &SwapReply{Attr: myAttr, X: myX, Swapped: swapped, Seq: m.Seq}) //flasks:fire-and-forget see Tick
		return true
	case *SwapReply:
		if !s.hasPending || s.pendingPeer != from || m.Seq != s.seq {
			return true // stale or unsolicited reply
		}
		s.hasPending = false
		if m.Busy {
			return true
		}
		if m.Swapped {
			// The responder took our x; adopt theirs to complete the
			// swap. Our x cannot have changed since the request: the
			// pending flag refused every exchange in between.
			s.x = m.X
		}
		return true
	default:
		return false
	}
}

// misordered reports whether the attribute order of (a, b) disagrees
// with their random-value order, in which case the values must swap.
func misordered(attrA float64, idA transport.NodeID, xA float64, attrB float64, idB transport.NodeID, xB float64) bool {
	attrLess := less(attrA, idA, attrB, idB)
	xLess := xA < xB
	return attrLess != xLess
}
