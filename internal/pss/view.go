// Package pss implements the Peer Sampling Service the paper builds on:
// every node maintains a small partial view approximating a uniform
// random sample of the whole system. The protocol is Cyclon
// (shuffle-based, [9]).
//
// Descriptors piggyback each node's slicing attribute and current slice
// claim, so the slicing protocol and the intra-slice discovery receive a
// continuous stream of uniform samples at no extra message cost — the
// "low memory" mode of operation DSlead advocates.
package pss

import (
	"math/rand/v2"

	"dataflasks/internal/transport"
)

// SliceUnknown marks a descriptor whose node has not yet decided its
// slice.
const SliceUnknown int32 = -1

// Descriptor advertises one node in a view.
type Descriptor struct {
	ID transport.NodeID
	// Age counts gossip rounds since the descriptor was created.
	Age uint32
	// Attr is the node's slicing attribute (for example storage
	// capacity) at descriptor creation time.
	Attr float64
	// Slice is the slice the node believed it belonged to, or
	// SliceUnknown.
	Slice int32
	// Addr is the node's dialable address in real (TCP) deployments;
	// empty in simulations. Gossiping addresses with descriptors is
	// what lets an unstructured overlay bootstrap its own routing
	// directory.
	Addr string
}

// View is a bounded set of descriptors with no duplicates and never
// containing the owner. The zero value is an empty view; use the methods
// to keep the invariants.
type View struct {
	entries []Descriptor
}

// Len returns the number of descriptors.
func (v *View) Len() int { return len(v.entries) }

// Entries returns a copy of the descriptors (callers may not mutate the
// view through the result).
func (v *View) Entries() []Descriptor {
	out := make([]Descriptor, len(v.entries))
	copy(out, v.entries)
	return out
}

// IDs returns the node ids currently in the view.
func (v *View) IDs() []transport.NodeID {
	out := make([]transport.NodeID, len(v.entries))
	for i, d := range v.entries {
		out[i] = d.ID
	}
	return out
}

// Contains reports whether id is in the view.
func (v *View) Contains(id transport.NodeID) bool {
	return v.indexOf(id) >= 0
}

// Get returns the descriptor for id.
func (v *View) Get(id transport.NodeID) (Descriptor, bool) {
	if i := v.indexOf(id); i >= 0 {
		return v.entries[i], true
	}
	return Descriptor{}, false
}

func (v *View) indexOf(id transport.NodeID) int {
	for i, d := range v.entries {
		if d.ID == id {
			return i
		}
	}
	return -1
}

// Add inserts d if absent; when present it keeps the younger
// descriptor (ties go to the incoming copy, whose metadata travelled
// more recently). Returns true when the view changed.
func (v *View) Add(d Descriptor) bool {
	if i := v.indexOf(d.ID); i >= 0 {
		if d.Age <= v.entries[i].Age {
			v.entries[i] = d
			return true
		}
		return false
	}
	v.entries = append(v.entries, d)
	return true
}

// Remove deletes id, reporting whether it was present.
func (v *View) Remove(id transport.NodeID) bool {
	i := v.indexOf(id)
	if i < 0 {
		return false
	}
	last := len(v.entries) - 1
	v.entries[i] = v.entries[last]
	v.entries = v.entries[:last]
	return true
}

// IncrementAges adds one round to every descriptor's age.
func (v *View) IncrementAges() {
	for i := range v.entries {
		v.entries[i].Age++
	}
}

// Oldest returns the descriptor with the highest age.
func (v *View) Oldest() (Descriptor, bool) {
	if len(v.entries) == 0 {
		return Descriptor{}, false
	}
	best := 0
	for i := 1; i < len(v.entries); i++ {
		if v.entries[i].Age > v.entries[best].Age {
			best = i
		}
	}
	return v.entries[best], true
}

// RandomSubset returns up to n distinct descriptors chosen uniformly.
func (v *View) RandomSubset(rng *rand.Rand, n int) []Descriptor {
	if n <= 0 || len(v.entries) == 0 {
		return nil
	}
	if n >= len(v.entries) {
		return v.Entries()
	}
	idx := rng.Perm(len(v.entries))[:n]
	out := make([]Descriptor, 0, n)
	for _, i := range idx {
		out = append(out, v.entries[i])
	}
	return out
}

// TruncateOldest drops the oldest descriptors until the view holds at
// most max entries.
func (v *View) TruncateOldest(max int) {
	for len(v.entries) > max {
		best := 0
		for i := 1; i < len(v.entries); i++ {
			if v.entries[i].Age > v.entries[best].Age {
				best = i
			}
		}
		last := len(v.entries) - 1
		v.entries[best] = v.entries[last]
		v.entries = v.entries[:last]
	}
}

// CheckInvariants verifies no duplicates and that self is absent; it is
// used by tests and debug builds.
func (v *View) CheckInvariants(self transport.NodeID) error {
	seen := make(map[transport.NodeID]bool, len(v.entries))
	for _, d := range v.entries {
		if d.ID == self {
			return errSelfInView
		}
		if seen[d.ID] {
			return errDuplicateInView
		}
		seen[d.ID] = true
	}
	return nil
}
