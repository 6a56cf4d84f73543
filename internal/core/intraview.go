package core

import (
	"math/rand/v2"
	"slices"

	"dataflasks/internal/pss"
	"dataflasks/internal/transport"
)

// intraView is the node's view of its own slice: the dissemination
// targets for the intra-slice phase (§IV-B "Peer Sampling Service
// intra-slice") and the anti-entropy partners. It is populated
// passively from the PSS descriptor stream and actively by mate
// discovery, and entries expire when not refreshed so crashed mates age
// out.
type intraView struct {
	capacity int
	stale    uint64 // rounds before an unrefreshed entry is dropped
	entries  map[transport.NodeID]*intraEntry
}

type intraEntry struct {
	desc pss.Descriptor
	seen uint64 // round of last refresh
}

// intraViewTarget is the intra-slice view size discovery tops up to (the
// view holds twice as many); intraStaleRounds evicts an entry not
// refreshed for this many rounds.
const (
	intraViewTarget  = 8
	intraStaleRounds = 12
)

func newIntraView(capacity int, staleRounds int) *intraView {
	return &intraView{
		capacity: capacity,
		stale:    uint64(staleRounds),
		entries:  make(map[transport.NodeID]*intraEntry, capacity),
	}
}

// Touch records that d was observed (claiming our slice) at round now.
// When the view is full the entry seen longest ago is replaced.
func (v *intraView) Touch(d pss.Descriptor, now uint64) {
	if e, ok := v.entries[d.ID]; ok {
		e.desc = d
		e.seen = now
		return
	}
	if len(v.entries) >= v.capacity {
		// Deterministic victim: stalest entry, smallest id on ties, so
		// simulations replay bit-for-bit.
		var victim transport.NodeID
		var oldest uint64 = ^uint64(0)
		for id, e := range v.entries {
			if e.seen < oldest || (e.seen == oldest && id < victim) {
				oldest = e.seen
				victim = id
			}
		}
		if oldest >= now { // everyone fresh; drop the newcomer instead
			return
		}
		delete(v.entries, victim)
	}
	v.entries[d.ID] = &intraEntry{desc: d, seen: now}
}

// Remove drops id (observed in another slice, or known dead).
func (v *intraView) Remove(id transport.NodeID) { delete(v.entries, id) }

// Expire drops entries not refreshed within the staleness window.
func (v *intraView) Expire(now uint64) {
	for id, e := range v.entries {
		if now-e.seen > v.stale {
			delete(v.entries, id)
		}
	}
}

// Clear empties the view (after a slice change).
func (v *intraView) Clear() {
	for id := range v.entries {
		delete(v.entries, id)
	}
}

// Len returns the current view size.
func (v *intraView) Len() int { return len(v.entries) }

// IDs returns the member ids in ascending order (stable order keeps
// simulations deterministic).
func (v *intraView) IDs() []transport.NodeID {
	out := make([]transport.NodeID, 0, len(v.entries))
	for id := range v.entries {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Descriptors returns the member descriptors ordered by id.
func (v *intraView) Descriptors() []pss.Descriptor {
	out := make([]pss.Descriptor, 0, len(v.entries))
	for _, id := range v.IDs() {
		out = append(out, v.entries[id].desc)
	}
	return out
}

// Random returns one uniformly chosen member.
func (v *intraView) Random(rng *rand.Rand) (transport.NodeID, bool) {
	ids := v.IDs()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[rng.IntN(len(ids))], true
}
