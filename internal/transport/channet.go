package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// ChanNetwork is an in-process fabric for live goroutine clusters: each
// attached node owns a bounded mailbox channel drained by its own event
// loop. Sends never block; a full mailbox drops the message, which
// models a congested link and is safe for epidemic protocols.
type ChanNetwork struct {
	mu        sync.RWMutex
	mailboxes map[NodeID]chan Envelope
	// direct holds, per recipient, a first-chance receiver (SetDirect).
	direct map[NodeID]func(Envelope) bool
	// perDrop counts, per recipient, messages discarded because that
	// recipient's mailbox was full — the receiver-side congestion
	// signal (Stats().Dropped also includes sends to unknown peers).
	perDrop map[NodeID]*atomic.Uint64
	closed  bool
	// delay, when set, draws a per-message delivery delay — real-time
	// RTT emulation for benchmarks that need network latency to matter
	// (the RESP pipelining comparison). Nil delivers immediately.
	delay func() time.Duration

	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// NewChanNetwork creates an empty in-process fabric.
func NewChanNetwork() *ChanNetwork {
	return &ChanNetwork{
		mailboxes: make(map[NodeID]chan Envelope),
		direct:    make(map[NodeID]func(Envelope) bool),
		perDrop:   make(map[NodeID]*atomic.Uint64),
	}
}

// Attach registers id with a mailbox of the given capacity and returns
// the receive channel plus the node's sender. The caller must drain the
// channel until Detach (or Close) closes it.
func (n *ChanNetwork) Attach(id NodeID, mailbox int) (<-chan Envelope, Sender, error) {
	if mailbox <= 0 {
		mailbox = 1024
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, nil, ErrClosed
	}
	if _, ok := n.mailboxes[id]; ok {
		return nil, nil, ErrUnknownPeer // id already in use
	}
	ch := make(chan Envelope, mailbox)
	n.mailboxes[id] = ch
	if n.perDrop[id] == nil {
		// Survives Detach/re-Attach so the count covers the id's whole
		// lifetime.
		n.perDrop[id] = &atomic.Uint64{}
	}
	return ch, BindSender(n, id), nil
}

// SetDirect gives the attached node id a first-chance receiver: every
// envelope for id is offered to fn on the sender's goroutine and only
// queued in the mailbox when fn declines it. fn must be non-blocking
// and safe for concurrent use (a node passes core.DispatchData, which
// keeps data-plane requests off its control loop). Detach removes it.
func (n *ChanNetwork) SetDirect(id NodeID, fn func(Envelope) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.mailboxes[id]; ok {
		n.direct[id] = fn
	}
}

// SetDelay installs a per-message artificial delivery delay drawn from
// fn (nil restores immediate delivery). fn must be safe for concurrent
// use. Delayed deliveries ride timers, so ordering between messages is
// not preserved — which is how real networks behave and what epidemic
// protocols are built for. Set it before traffic flows.
func (n *ChanNetwork) SetDelay(fn func() time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delay = fn
}

// DroppedFor returns how many messages addressed to id were discarded
// because id's mailbox was full.
func (n *ChanNetwork) DroppedFor(id NodeID) uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if c, ok := n.perDrop[id]; ok {
		return c.Load()
	}
	return 0
}

// Detach removes id and closes its mailbox. In-flight sends to id after
// Detach are dropped.
func (n *ChanNetwork) Detach(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ch, ok := n.mailboxes[id]; ok {
		delete(n.mailboxes, id)
		delete(n.direct, id)
		close(ch)
	}
}

// Close detaches every node. Further Attach and Send calls fail.
func (n *ChanNetwork) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for id, ch := range n.mailboxes {
		delete(n.mailboxes, id)
		delete(n.direct, id)
		close(ch)
	}
}

// Stats returns fabric-level delivery counters.
func (n *ChanNetwork) Stats() Stats {
	return Stats{
		Sent:      n.sent.Load(),
		Delivered: n.delivered.Load(),
		Dropped:   n.dropped.Load(),
	}
}

// Send implements Fabric. A cancelled ctx drops the message before it
// is enqueued; in-flight delayed deliveries are not recalled (like a
// real network).
func (n *ChanNetwork) Send(ctx context.Context, to NodeID, env Envelope) error {
	n.sent.Add(1)
	if err := ctx.Err(); err != nil {
		n.dropped.Add(1)
		return err
	}
	n.mu.RLock()
	delay := n.delay
	n.mu.RUnlock()
	if delay != nil {
		if d := delay(); d > 0 {
			// Emulated network latency: deliver from a timer. Errors
			// after the delay (peer gone, mailbox full) are counted but
			// no longer reportable to the sender — like a real network.
			time.AfterFunc(d, func() { _ = n.deliver(env.From, to, env.Msg) })
			return nil
		}
	}
	return n.deliver(env.From, to, env.Msg)
}

func (n *ChanNetwork) deliver(from, to NodeID, msg interface{}) error {
	// The read lock is held across the channel send so Detach/Close
	// (which close the mailbox under the write lock) cannot race a
	// send into a closed channel. The send is non-blocking, so the
	// lock is never held for long.
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		n.dropped.Add(1)
		return ErrClosed
	}
	ch, ok := n.mailboxes[to]
	if !ok {
		n.dropped.Add(1)
		return ErrUnknownPeer
	}
	env := Envelope{From: from, To: to, Msg: msg}
	if fn := n.direct[to]; fn != nil && fn(env) {
		n.delivered.Add(1)
		return nil
	}
	select {
	case ch <- env:
		n.delivered.Add(1)
		return nil
	default:
		n.dropped.Add(1)
		if c := n.perDrop[to]; c != nil {
			c.Add(1)
		}
		return ErrDropped
	}
}
