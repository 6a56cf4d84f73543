package client

import (
	"context"
	"math/rand/v2"
	"slices"

	"dataflasks/internal/core"
	"dataflasks/internal/slicing"
	"dataflasks/internal/transport"
)

// maxSliceMembers bounds the members the directory keeps per slice:
// one MateReply's worth (core's maxMateReply).
const maxSliceMembers = 16

// directoryRefreshTicks is how often the directory asks every slice
// that still has room for more members, so nodes that joined since the
// last answer get their share of the contacts.
const directoryRefreshTicks = 60

// DirectoryStats counts the directory's contact decisions.
type DirectoryStats struct {
	// Hits are attempts sent straight to a known member of the key's
	// slice.
	Hits uint64
	// Fallbacks are attempts that drew from the random contact list:
	// the slice had no known member, or the attempt asked for the flood.
	Fallbacks uint64
	// Evictions are members dropped because an attempt through them
	// timed out or came back acknowledged by another node.
	Evictions uint64
	// Local are the Hits that went to the node the client lives in (see
	// Directory.SetLocal); always zero for a client in a process of its
	// own.
	Local uint64
}

// Directory is the §VII load balancer: per slice it knows up to
// maxSliceMembers nodes that belong to it and contacts one of them, so
// a request enters its slice directly and the global dissemination
// phase disappears. Slices it knows nothing about yet fall back to the
// wrapped balancer's random contact list.
//
// The contact is drawn once per slice per client tick and pinned until
// the tick ends (endTick) or the member is evicted or replaced: a
// pipelined burst then enters its slice at one member, which answers,
// relays and group-commits it in batches, where per-request draws would
// split it across every member. The draws deal the known members out
// like a shuffled deck: each is drawn uniformly from those not yet
// pinned in the current round of turns, so over any run of ticks no
// member of a stable slice is pinned more than once beyond any other.
//
// It learns from the traffic the client already receives: whoever
// acknowledges a write or answers a read for a key holds that key, so
// it is a member of the key's slice. To the first member it learns of a
// slice it sends one core.MateQuery, and the MateReply fills in the
// rest — one learned node would otherwise take every request of its
// slice. A member is dropped when a request sent to it times out, or is
// acknowledged by another node (it relayed: it has left the slice).
//
// A client that lives in a node's process names that node with SetLocal:
// it costs a function call to reach where every other member costs a
// socket, so while it is a known member of a key's slice it is the
// contact. It gets no other privilege — it is learned, evicted and asked
// for back like any member, and attempts that bypass the directory bypass
// it too.
//
// Not safe for concurrent use: it belongs to the Core it is handed to.
type Directory struct {
	fallback   *RandomLB
	sliceCount int
	rng        *rand.Rand
	out        transport.Sender
	book       transport.AddressBook // nil on fabrics that route by id alone
	local      transport.NodeID      // the node this client lives in; 0 for none

	members map[int32][]transport.NodeID
	// pins holds each slice's contact for the current tick.
	pins map[int32]transport.NodeID
	// turns holds, per slice, the members still to be pinned in the
	// current round of turns; a member that left the slice since is
	// dropped at the next draw.
	turns map[int32][]transport.NodeID
	// asked holds the slices with a MateQuery in flight, each with the
	// node whose eviction prompted the query (0 for none): the reply of a
	// peer that has not noticed yet must not bring that node straight
	// back.
	asked map[int32]transport.NodeID
	stats DirectoryStats
}

var _ LoadBalancer = (*Directory)(nil)

// NewDirectory wraps fallback with a slice directory. sliceCount should
// be the deployment's slice count: with another value requests still
// complete, because nodes re-route what reaches the wrong slice, but
// pay the hops the directory exists to save. out carries the mate
// queries; book, when not nil, is taught the address of every member a
// reply introduces.
func NewDirectory(fallback *RandomLB, sliceCount int, rng *rand.Rand, out transport.Sender, book transport.AddressBook) *Directory {
	if fallback == nil || rng == nil || out == nil {
		panic("client: NewDirectory requires a fallback balancer, a random source and a sender")
	}
	if sliceCount <= 0 {
		sliceCount = 1
	}
	return &Directory{
		fallback:   fallback,
		sliceCount: sliceCount,
		rng:        rng,
		out:        out,
		book:       book,
		members:    make(map[int32][]transport.NodeID),
		pins:       make(map[int32]transport.NodeID),
		turns:      make(map[int32][]transport.NodeID),
		asked:      make(map[int32]transport.NodeID),
	}
}

// SetLocal names the node whose process the client lives in. Call it
// before the directory is handed to its Core.
func (d *Directory) SetLocal(node transport.NodeID) { d.local = node }

// Contact implements LoadBalancer: the local node when it is a known
// member of key's slice; else the slice's pin for this tick, drawn by
// the first request that needs it; or the fallback's choice while no
// member is known.
func (d *Directory) Contact(key string) (transport.NodeID, bool) {
	slice := slicing.KeySlice(key, d.sliceCount)
	m := d.members[slice]
	if len(m) == 0 {
		return d.random(0)
	}
	d.stats.Hits++
	if d.local != 0 && slices.Contains(m, d.local) {
		d.stats.Local++
		return d.local, true
	}
	pin, ok := d.pins[slice]
	if !ok {
		pin = d.draw(slice, m)
		d.pins[slice] = pin
	}
	return pin, true
}

// draw takes slice's next turn: a uniform pick among the members m not
// yet pinned in this round of turns, starting a new round once every
// member has had one.
func (d *Directory) draw(slice int32, m []transport.NodeID) transport.NodeID {
	left := slices.DeleteFunc(d.turns[slice], func(n transport.NodeID) bool { return !slices.Contains(m, n) })
	if len(left) == 0 {
		left = append(left, m...)
	}
	i := d.rng.IntN(len(left))
	pin := left[i]
	left[i] = left[len(left)-1]
	d.turns[slice] = left[:len(left)-1]
	return pin
}

// endTick unpins every slice: the next request of each draws again.
func (d *Directory) endTick() { clear(d.pins) }

// random is the contact of an attempt that must not enter its slice
// directly (see Core.contact). A retry names the contact of the attempt
// that timed out as failed: while the list holds another node the draw
// skips it, so the retry of a read whose member died does not go back to
// that member through the seed list.
func (d *Directory) random(failed transport.NodeID) (transport.NodeID, bool) {
	d.stats.Fallbacks++
	return d.fallback.contactOther(failed)
}

// learn records that node holds key and therefore belongs to key's
// slice. The first member of a slice is asked for the others at once.
// In a full slice the node takes the place of a random member: what a
// node proved by answering outranks what a MateReply said about another.
// The local node's slot is passed over: it is the one member whose loss
// would cost every request of its slice a socket.
func (d *Directory) learn(key string, node transport.NodeID) {
	slice := slicing.KeySlice(key, d.sliceCount)
	m := d.members[slice]
	switch {
	case slices.Contains(m, node):
	case len(m) >= maxSliceMembers:
		i := d.rng.IntN(len(m))
		if m[i] == d.local {
			i = (i + 1) % len(m)
		}
		d.unpin(slice, m[i])
		m[i] = node
	default:
		d.members[slice] = append(m, node)
		if len(m) == 0 {
			d.ask(slice, 0)
		}
	}
}

// evict drops node from key's slice and asks a remaining member for a
// replacement.
func (d *Directory) evict(key string, node transport.NodeID) {
	slice := slicing.KeySlice(key, d.sliceCount)
	if d.remove(slice, node) {
		d.ask(slice, node)
	}
}

func (d *Directory) remove(slice int32, node transport.NodeID) bool {
	m := d.members[slice]
	i := slices.Index(m, node)
	if i < 0 {
		return false
	}
	m[i] = m[len(m)-1]
	d.members[slice] = m[:len(m)-1]
	d.unpin(slice, node)
	d.stats.Evictions++
	return true
}

// unpin drops slice's pin if it is node, which is leaving the slice's
// members.
func (d *Directory) unpin(slice int32, node transport.NodeID) {
	if d.pins[slice] == node {
		delete(d.pins, slice)
	}
}

// ask sends one MateQuery for slice to a known member, unless one is in
// flight, nobody is known to ask, or the slice is full.
func (d *Directory) ask(slice int32, evicted transport.NodeID) {
	m := d.members[slice]
	if _, inFlight := d.asked[slice]; inFlight || len(m) == 0 || len(m) >= maxSliceMembers {
		return
	}
	d.asked[slice] = evicted
	// A lost query is covered by the next refresh; like every client
	// send it needs no ctx or error plumbing.
	//flasks:fire-and-forget
	_ = d.out.Send(context.Background(), m[d.rng.IntN(len(m))], &core.MateQuery{Slice: slice})
}

// refresh re-asks every slice with room left, and writes off queries
// whose replies never came.
func (d *Directory) refresh() {
	clear(d.asked)
	for slice := int32(0); slice < int32(d.sliceCount); slice++ {
		d.ask(slice, 0)
	}
}

// addMates files the members a MateReply names in the slots the slice
// has left, and teaches the address book how to reach the new ones. A
// reply nobody asked for is dropped.
func (d *Directory) addMates(m *core.MateReply) {
	evicted, ok := d.asked[m.Slice]
	if !ok {
		return
	}
	delete(d.asked, m.Slice)
	for _, mate := range m.Mates {
		known := d.members[m.Slice]
		if len(known) >= maxSliceMembers {
			return
		}
		if mate.ID == evicted || slices.Contains(known, mate.ID) {
			continue
		}
		d.members[m.Slice] = append(known, mate.ID)
		if d.book != nil && mate.Addr != "" {
			d.book.Learn(mate.ID, mate.Addr)
		}
	}
}
