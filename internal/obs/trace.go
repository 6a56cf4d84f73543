// Trace ring: a per-node lock-free journal of protocol round events.
//
// The control loop and the data-plane shard goroutines are the
// writers; /trace scrapes are the readers. The ring is a power-of-two
// slot array of atomic pointers: a writer claims a slot with one
// atomic add, builds the Event on its own stack, and publishes it with
// one pointer store — no lock, no reader coordination, and a slow
// scraper can never stall an event loop (it just misses overwritten
// slots). A nil *Ring is the disabled plane:
// every method is a no-op that allocates nothing, so trace calls stay
// on the hot path unconditionally and cost two compares when tracing
// is off (asserted by BenchmarkRingDisabled).
package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// TraceKind classifies one journal event.
type TraceKind uint8

const (
	// TracePutApply: a put (single or batch) was applied locally —
	// stored, or buffered in the coalescing window. Bytes is the value
	// size, Objects the batch size.
	TracePutApply TraceKind = iota + 1
	// TracePutRelay: a put was forwarded during routing. Peer is 0
	// for a global-phase flood (many receivers) or the target node id
	// for intra-slice relays.
	TracePutRelay
	// TraceGetServe: a get was answered from the local store; Bytes is
	// the value size.
	TraceGetServe
	// TraceGetRelay: a get was forwarded during routing.
	TraceGetRelay
	// TraceDeleteApply: a delete (single or batch) was applied
	// locally; Objects is the batch size.
	TraceDeleteApply
	// TraceDeleteRelay: a delete was forwarded during routing.
	TraceDeleteRelay
	// TraceAERound: one anti-entropy tick. Bytes is the digest bytes
	// received since the previous tick, Objects the repair objects
	// pushed from it, Dur the tick's duration.
	TraceAERound
	// TraceShuffle: one peer-sampling shuffle tick; Dur is its
	// duration.
	TraceShuffle
	// TraceBootFetch: the bootstrap joiner requested a segment stream;
	// Seg is the segment id, Bytes the resume offset.
	TraceBootFetch
	// TraceBootSegment: the joiner verified and applied one whole
	// streamed segment.
	TraceBootSegment
)

var traceKindNames = map[TraceKind]string{
	TracePutApply:    "put_apply",
	TracePutRelay:    "put_relay",
	TraceGetServe:    "get_serve",
	TraceGetRelay:    "get_relay",
	TraceDeleteApply: "delete_apply",
	TraceDeleteRelay: "delete_relay",
	TraceAERound:     "ae_round",
	TraceShuffle:     "shuffle",
	TraceBootFetch:   "boot_fetch",
	TraceBootSegment: "boot_segment",
}

// String returns the snake_case event name used in /trace output.
func (k TraceKind) String() string {
	if s, ok := traceKindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Event is one journal entry. Field meaning varies by Kind (see the
// kind constants); unused fields stay zero and are omitted from JSON.
type Event struct {
	// Seq is the node-local publication order (dense, monotonic).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock publication time in Unix nanoseconds.
	Time int64 `json:"time_unix_nano"`
	// Kind classifies the event; rendered as its snake_case name.
	Kind TraceKind `json:"-"`
	// TraceID stitches one client request across relay hops; zero on
	// protocol round events.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Key is the object key for data-path events.
	Key string `json:"key,omitempty"`
	// Peer is the counterpart node id, when there is exactly one.
	Peer uint64 `json:"peer,omitempty"`
	// Seg is the segment id on bootstrap events.
	Seg uint64 `json:"seg,omitempty"`
	// Shard is the 1-based id of the data-plane shard that journaled
	// the event; 0 (omitted) means a control-plane event.
	Shard uint64 `json:"shard,omitempty"`
	// Bytes and Objects are kind-specific volume operands.
	Bytes   uint64 `json:"bytes,omitempty"`
	Objects uint64 `json:"objects,omitempty"`
	// Dur is the event's duration, for events that span time.
	Dur time.Duration `json:"dur_nanos,omitempty"`
}

// Ring is the journal. Create with NewRing; a nil Ring is valid and
// drops everything.
type Ring struct {
	mask  uint64
	pos   atomic.Uint64
	slots []atomic.Pointer[Event]
}

// NewRing creates a ring holding the last n events, rounded up to a
// power of two (minimum 16). n <= 0 returns nil — the disabled ring.
func NewRing(n int) *Ring {
	if n <= 0 {
		return nil
	}
	size := 16
	for size < n {
		size <<= 1
	}
	return &Ring{mask: uint64(size - 1), slots: make([]atomic.Pointer[Event], size)}
}

// Add publishes one event, stamping Seq and (when unset) Time. Safe
// for any number of concurrent writers (the slot claim is one atomic
// add) and Snapshot readers; a nil receiver is a no-op. The publish step lives in its own function so
// the heap copy it forces (&ev escapes into the slot) is not hoisted
// into the nil fast path — disabled tracing must not allocate.
func (r *Ring) Add(ev Event) {
	if r == nil {
		return
	}
	r.publish(ev)
}

//go:noinline
func (r *Ring) publish(ev Event) {
	ev.Seq = r.pos.Add(1) - 1
	if ev.Time == 0 {
		ev.Time = time.Now().UnixNano()
	}
	r.slots[ev.Seq&r.mask].Store(&ev)
}

// Len returns how many events have ever been published (not how many
// the ring still holds). Nil-safe.
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.pos.Load()
}

// Snapshot copies the currently held events in publication order. A
// writer racing the copy can overwrite a slot mid-snapshot; the stale
// event is simply replaced by the newer one it published, never torn
// (slots hold immutable events behind atomic pointers). Nil-safe.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
