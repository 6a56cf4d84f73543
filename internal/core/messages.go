// Package core implements the DataFlasks node — the paper's primary
// contribution (§IV, §V): an epidemic key-value substrate in which
// every node locally decides what to store, requests are routed by
// bounded gossip over peer-sampling views until they reach the target
// slice and are then disseminated intra-slice only, and replication
// equals slice membership.
package core

import (
	"dataflasks/internal/gossip"
	"dataflasks/internal/pss"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// Routing is the header every data-plane request carries: what each hop
// of §IV-B reads or rewrites, the same for all five kinds. A request
// travels in two phases: a TTL-bounded global phase over PSS views — one
// directed hop when the relaying node's view already names a member of
// the key's slice, the epidemic fanout otherwise or when Flood is set —
// switching to an intra-slice phase (Intra=true) the moment it reaches a
// node of the target slice, whose members apply it and pass it on to
// their mates.
type Routing struct {
	ID gossip.RequestID
	// Origin is the client endpoint acks and replies are sent to.
	Origin transport.NodeID
	// OriginAddr is the client's dialable address for TCP fabrics
	// (empty in simulations): replicas must be able to answer a client
	// they have never heard from.
	OriginAddr string
	TTL        uint8
	Intra      bool
	// NoAck suppresses the ack of a write (fire-and-forget). Gets never
	// carry it: a reply is the point of a read.
	NoAck bool
	// TraceID, when non-zero, journals this request's lifecycle in
	// every hop's /trace ring so one operation can be stitched across
	// relays.
	TraceID uint64
	// Flood asks every node of the global phase for the epidemic
	// fanout instead of the directed hop: the dependable path, which
	// clients request on retries, on operations that need more than
	// one ack (only global-phase copies are acknowledged, so several
	// slice nodes must receive one) and on deletes. A node sets it on
	// the copy it sends on a second consecutive directed hop (see
	// relayGlobal).
	Flood bool
}

// request is a data-plane message as the routing skeleton (handleData)
// sees it: the header, the key that names the target slice and the
// owning shard, and a copy to rewrite for the next hop — messages are
// immutable, since a node's own clients receive the pointer it sent.
type request interface {
	routing() *Routing
	// routeKey is the request's key, a batch's first; false for an empty
	// batch, which names no slice.
	routeKey() (string, bool)
	// hop returns a shallow copy.
	hop() request
}

func (r *Routing) routing() *Routing { return r }

// PutRequest writes (Key, Version) → Value. Version ordering is the
// upper layer's responsibility (§III); DataFlasks stores what it is
// told.
type PutRequest struct {
	Routing
	Key     string
	Version uint64
	Value   []byte
}

func (m *PutRequest) routeKey() (string, bool) { return m.Key, true }
func (m *PutRequest) hop() request             { c := *m; return &c }

// PutAck confirms a put was stored by one replica. It is emitted only
// by slice nodes that received the request in its global phase (the
// slice "entry points"), which bounds acks per put by the flood's
// expected slice hits rather than the slice size.
type PutAck struct {
	ID      gossip.RequestID
	Key     string
	Version uint64
}

// GetRequest reads Key at Version (store.Latest for newest). Every
// slice node holding the object answers the Origin directly; the client
// library de-duplicates replies by ID (paper §V).
type GetRequest struct {
	Routing
	Key     string
	Version uint64
}

func (m *GetRequest) routeKey() (string, bool) { return m.Key, true }
func (m *GetRequest) hop() request             { c := *m; return &c }

// GetReply answers a GetRequest.
type GetReply struct {
	ID      gossip.RequestID
	Key     string
	Version uint64
	Value   []byte
	// Slice is the responder's slice, letting clients warm their
	// slice-contact cache (§VII load-balancer optimization).
	Slice int32
}

// PutBatchRequest writes a batch of objects that all map to one target
// slice (the client groups per slice before sending). It lands on each
// replica as a single store.PutBatch call: one lock acquisition and, in
// the log engine, one appended record batch plus one group-commit fsync.
// Nodes that predate this message type ignore it (unknown kinds fall
// through HandleMessage's default case), so mixed-version deployments
// degrade to "batch not replicated by old nodes" rather than crashing.
type PutBatchRequest struct {
	Routing
	// Objs all belong to one slice under the sender's slice count; the
	// receiving node recomputes the target from Objs[0].Key.
	Objs []store.Object
}

func (m *PutBatchRequest) routeKey() (string, bool) {
	if len(m.Objs) == 0 {
		return "", false
	}
	return m.Objs[0].Key, true
}
func (m *PutBatchRequest) hop() request { c := *m; return &c }

// PutBatchAck confirms a whole batch was stored by one replica, with
// the same entry-point-only emission rule as PutAck.
type PutBatchAck struct {
	ID gossip.RequestID
	// Stored is how many objects the replica applied (always the full
	// batch; partial application fails the batch and is not acked).
	Stored int
}

// DeleteRequest removes (Key, Version) from the target slice's
// replicas; Version store.Latest removes each replica's newest stored
// version (resolved independently per replica, mirroring Get). Deletes
// must reach the whole target slice.
type DeleteRequest struct {
	Routing
	Key     string
	Version uint64
}

func (m *DeleteRequest) routeKey() (string, bool) { return m.Key, true }
func (m *DeleteRequest) hop() request             { c := *m; return &c }

// DeleteAck confirms a delete was applied by one replica.
type DeleteAck struct {
	ID      gossip.RequestID
	Key     string
	Version uint64
}

// DeleteItem names one (key, version) pair of a batch delete. Version
// store.Latest removes each replica's newest stored version of the key.
type DeleteItem struct {
	Key     string
	Version uint64
}

// DeleteBatchRequest removes a batch of objects that all map to one
// target slice (the client groups per slice before sending), mirroring
// PutBatchRequest: each replica applies it in one pass over the local
// store. Nodes that predate this message type ignore it (unknown kinds
// fall through HandleMessage's default case), so mixed-version
// deployments degrade to "batch not deleted by old nodes" rather than
// crashing.
type DeleteBatchRequest struct {
	Routing
	// Items all belong to one slice under the sender's slice count; the
	// receiving node recomputes the target from Items[0].Key.
	Items []DeleteItem
}

func (m *DeleteBatchRequest) routeKey() (string, bool) {
	if len(m.Items) == 0 {
		return "", false
	}
	return m.Items[0].Key, true
}
func (m *DeleteBatchRequest) hop() request { c := *m; return &c }

// DeleteBatchAck confirms a whole delete batch was applied by one
// replica, with the same entry-point-only emission rule as PutAck.
type DeleteBatchAck struct {
	ID gossip.RequestID
	// Applied is how many of the batch's items named an object this
	// replica actually held (and therefore removed). Replicas may
	// disagree while convergence is in progress; clients surface the
	// largest count observed.
	Applied int
}

// Replies carries the answers — PutAck, PutBatchAck, GetReply,
// DeleteAck, DeleteBatchAck — that one shard produced for one origin
// during one run, two or more of them, in the order they were produced:
// one message instead of one per answer. The client handles each as if
// it had arrived alone. A lone answer travels as itself, so a node that
// handles runs of one envelope never sends this.
type Replies struct {
	Msgs []interface{}
}

// MateQuery asks a random peer for members of the sender's slice it
// happens to know; this is how the intra-slice view bootstraps when
// slices are scarce in the PSS stream.
type MateQuery struct {
	Slice int32
}

// MateReply returns known members of the queried slice.
type MateReply struct {
	Slice int32
	Mates []pss.Descriptor
}
