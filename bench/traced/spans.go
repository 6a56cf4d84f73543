// Package traced is the benchmark's per-layer time source. It assembles
// the benchmark's 4-node, 2-slice TCP-loopback cluster inside the
// benchmark's own process from the layers' public constructors, with a
// span-recording decorator around each boundary — the store, the wire
// codec, the transport sender, the mailbox and the node and client
// loops — replays a workload's first ops with one blocking caller, and
// turns the spans into a budget: one row per step on the path the
// caller waits for, rows that sum to the end-to-end time.
//
// Nothing here is mixed into the end-to-end numbers: those come from
// real flasksd processes. The same cluster run with the decorators off
// gives the tracing overhead.
package traced

import (
	"sort"
	"sync/atomic"
	"time"

	"dataflasks/internal/core"
)

// Kind names the layer boundary a span was recorded at.
type Kind uint8

// Span kinds, one per decorated boundary.
const (
	ClientOp        Kind = iota // one whole operation, issue to completion
	ClientIssue                 // the client core's Start call
	ClientComplete              // a reply: enqueued at the client until handled
	WireEncode                  // codec Encode
	WireDecode                  // codec Decode
	TransportSend               // Sender.Send: connection lock, encode, socket write
	TransportFlight             // encode end at the sender to decode start at the receiver
	MailboxWait                 // a node's mailbox: enqueue to dequeue
	CoreHandle                  // core.Node.HandleMessage
	CoreTick                    // core.Node.Tick
	StorePut                    // store.Put
	StoreGet                    // store.Get
	StorePutBatch               // store.PutBatch (coalesced relay copies, repair)
	numKinds
)

var kindNames = [numKinds]string{
	"client.op", "client.issue", "client.complete", "wire.encode", "wire.decode",
	"transport.send", "transport.flight", "core.mailbox_wait", "core.handle", "core.tick",
	"store.put", "store.get", "store.putbatch",
}

// String returns the span's layer.name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder started; Parent indexes the span that
// caused this one (-1 for an operation's root and for background
// work); Req is the request id the message or call belongs to (0 for
// control-plane traffic).
type Span struct {
	Kind   Kind
	Node   uint8 // 0 is the client, 1..4 the nodes
	Parent int32
	Req    uint64
	Start  int64
	End    int64
	// N is the frame size of an encode and the object count of a batch.
	N int32
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// recorder appends spans to a slice allocated before the run, so that
// recording costs an atomic add and a store, and never the allocator.
// Each slot is written by the goroutine that claimed it; readers wait
// for the cluster to stop.
type recorder struct {
	t0      time.Time
	spans   []Span
	n       atomic.Int64
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]Span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add stores s and returns its index, or -1 when the slice is full.
func (r *recorder) add(s Span) int32 {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = s
	return int32(i)
}

// end closes span i at time t.
func (r *recorder) end(i int32, t int64) {
	if i >= 0 {
		r.spans[i].End = t
	}
}

func (r *recorder) recorded() []Span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// reqOf extracts the request id of a data-plane message; control-plane
// messages have none.
func reqOf(msg interface{}) uint64 {
	switch m := msg.(type) {
	case *core.PutRequest:
		return uint64(m.ID)
	case *core.PutAck:
		return uint64(m.ID)
	case *core.GetRequest:
		return uint64(m.ID)
	case *core.GetReply:
		return uint64(m.ID)
	case *core.PutBatchRequest:
		return uint64(m.ID)
	case *core.PutBatchAck:
		return uint64(m.ID)
	}
	return 0
}

// SelfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other and may stick out of the
// parent; only their union inside the parent is subtracted.
func SelfTime(parent Span, children []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		if v.a > edge {
			edge = v.a
		}
		covered += v.b - edge
		edge = v.b
	}
	return parent.Dur() - covered
}
