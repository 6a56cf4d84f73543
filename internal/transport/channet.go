package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// ChanNetwork is an in-process fabric for live goroutine clusters: a
// send is a call of the recipient's handler on the sender's goroutine
// (or on a timer's, under SetDelay). Handlers must not block; what a
// recipient cannot take it drops and counts itself, as behind a socket.
type ChanNetwork struct {
	codec    WireCodec
	frames   sync.Pool // *[]byte, reused frame buffers
	mu       sync.RWMutex
	handlers map[NodeID]func(Envelope)
	closed   bool
	// delay, when set, draws a per-message delivery delay — real-time
	// RTT emulation for benchmarks that need network latency to matter
	// (the RESP pipelining comparison). Nil delivers immediately.
	delay func() time.Duration

	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// NewChanNetwork creates an empty in-process fabric; every message it
// carries goes through codec.
func NewChanNetwork(codec WireCodec) *ChanNetwork {
	if codec == nil {
		panic("transport: NewChanNetwork requires a codec")
	}
	return &ChanNetwork{
		codec:    codec,
		frames:   sync.Pool{New: func() any { return new([]byte) }},
		handlers: make(map[NodeID]func(Envelope)),
	}
}

// Attach registers handler for id and returns the node's sender. The
// handler runs on senders' goroutines, concurrently with itself: it must
// be non-blocking and safe for concurrent use (a node passes
// core.Node.Deliver).
func (n *ChanNetwork) Attach(id NodeID, handler func(Envelope)) (Sender, error) {
	if handler == nil {
		panic("transport: Attach requires a handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.handlers[id]; ok {
		return nil, ErrUnknownPeer // id already in use
	}
	n.handlers[id] = handler
	return BindSender(n, id), nil
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

// Detach removes id: sends to it fail with ErrUnknownPeer from now on
// (one already past the lookup may still reach the handler).
func (n *ChanNetwork) Detach(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, id)
}

// Close detaches every node. Further Attach and Send calls fail.
func (n *ChanNetwork) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	clear(n.handlers)
}

// Stats returns fabric-level delivery counters.
func (n *ChanNetwork) Stats() Stats {
	return Stats{
		Sent:      n.sent.Load(),
		Delivered: n.delivered.Load(),
		Dropped:   n.dropped.Load(),
	}
}

// Send implements Fabric. The message is encoded and decoded at once,
// whatever becomes of it. A cancelled ctx drops the message before it
// is delivered; in-flight delayed deliveries are not recalled (like a
// real network).
func (n *ChanNetwork) Send(ctx context.Context, to NodeID, env Envelope) error {
	env.To = to
	buf := n.frames.Get().(*[]byte)
	env, *buf = carry(n.codec, *buf, env)
	n.frames.Put(buf)
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
			// Emulated network latency: deliver from a timer. A peer gone
			// by then is counted but no longer reportable to the sender —
			// like a real network.
			time.AfterFunc(d, func() { _ = n.deliver(env) })
			return nil
		}
	}
	return n.deliver(env)
}

func (n *ChanNetwork) deliver(env Envelope) error {
	n.mu.RLock()
	handler, closed := n.handlers[env.To], n.closed
	n.mu.RUnlock()
	switch {
	case closed:
		n.dropped.Add(1)
		return ErrClosed
	case handler == nil:
		n.dropped.Add(1)
		return ErrUnknownPeer
	}
	n.delivered.Add(1)
	handler(env)
	return nil
}
