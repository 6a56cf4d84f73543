// Package slicing implements distributed slicing: autonomously
// partitioning the system into k ordered groups ("slices") by a locally
// measured attribute, with no global knowledge (paper §II, §IV-A).
//
// Three interchangeable slicers are provided:
//
//   - RankSlicer — the DSlead-style low-memory estimator used by
//     DataFlasks: each node estimates its attribute's rank from the
//     uniform descriptor stream the Peer Sampling Service already
//     delivers, at zero extra message cost.
//   - SwapSlicer — the Jelasity–Kermarrec ordered-slicing protocol:
//     nodes hold random values and swap them pairwise until the value
//     order matches the attribute order. No product path runs it; it
//     is the comparison E3 (flaskbench -exp slicing) measures.
//   - StaticSlicer — the "coin toss" baseline the paper argues against
//     (§IV-A): a fixed hash of the node id. Uniform, but unable to
//     rebalance after correlated failures.
package slicing

import (
	"context"

	"dataflasks/internal/hashmix"
	"dataflasks/internal/transport"
)

// Slicer is the slice-manager interface the node runtime drives.
type Slicer interface {
	// Slice returns the node's current slice claim in [0, k), or
	// SliceUnknown before the first decision.
	Slice() int32
	// SliceCount returns k.
	SliceCount() int
	// SetSliceCount reconfigures k at runtime (replication management,
	// paper §IV-C); the claim adapts on subsequent ticks.
	SetSliceCount(k int)
	// Observe feeds one uniform sample from the peer-sampling stream.
	Observe(id transport.NodeID, attr float64)
	// Tick runs one protocol round; ctx bounds the round's sends.
	Tick(ctx context.Context)
	// Handle processes a message, reporting false when it is not a
	// slicing message. ctx bounds any sends the handler makes (swap
	// replies).
	Handle(ctx context.Context, from transport.NodeID, msg interface{}) bool
}

// SliceUnknown is returned before a slicer has made its first decision.
const SliceUnknown int32 = -1

// KeyFraction maps a key to [0,1) by FNV-1a hashing with full-avalanche
// finalization; the whole key space is spread uniformly across slices.
func KeyFraction(key string) float64 {
	return hashmix.Frac(hashmix.HashString(key))
}

// KeySlice maps a key to its owning slice under k slices.
func KeySlice(key string, k int) int32 {
	if k <= 0 {
		return 0
	}
	s := int32(KeyFraction(key) * float64(k))
	if s >= int32(k) {
		s = int32(k) - 1
	}
	return s
}

// fracToSlice converts a rank estimate in [0,1] to a slice index.
func fracToSlice(frac float64, k int) int32 {
	if k <= 0 {
		return 0
	}
	s := int32(frac * float64(k))
	if s >= int32(k) {
		s = int32(k) - 1
	}
	if s < 0 {
		s = 0
	}
	return s
}

// less orders nodes by (attribute, id): ids break attribute ties so
// ranks form a total order even with equal capacities.
func less(attrA float64, idA transport.NodeID, attrB float64, idB transport.NodeID) bool {
	if attrA != attrB {
		return attrA < attrB
	}
	return idA < idB
}
