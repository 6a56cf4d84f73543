// The live half of the node's runtime: the one ticker-and-mailbox loop
// that drives a node outside a simulation. Start, Deliver and Stop call
// the caller-driven API (HandleMessage, Tick) and the shard runtime
// (StartShards, DispatchData, StopShards); every live owner — the TCP
// node, the in-process cluster — calls these three and nothing below.
package core

import (
	"context"
	"time"

	"dataflasks/internal/obs"
	"dataflasks/internal/transport"
)

// controlMailboxCap bounds the control mailbox; overflow drops the
// message (counted), which epidemic protocols tolerate by design.
const controlMailboxCap = 4096

// Start runs the node: the data shards on their goroutines and the
// control plane on one loop that handles what Deliver queued, ticks
// once per RoundPeriod and publishes a Status after every tick — and at
// once when a handled message flips readiness. Call it at most once,
// after Bootstrap; Stop ends what it started. ctx is the parent of every
// send the node makes.
func (n *Node) Start(ctx context.Context) {
	// The loop's context is cancelled first at Stop, so a round blocked
	// on a slow peer stops dialing instead of stalling shutdown. The
	// shards' outlives it by one drain: queued acks still reach the wire.
	loopCtx, cancel := context.WithCancel(ctx)
	dataCtx, dataCancel := context.WithCancel(ctx)
	n.mailbox = make(chan transport.Envelope, controlMailboxCap)
	n.publishStatus()
	n.StartShards(dataCtx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.loop(loopCtx)
	}()
	n.stop = func() {
		cancel()
		<-done
		// Drain the shard mailboxes before the owner closes the fabric
		// and the store, so every write accepted so far lands and its ack
		// gets a live connection to leave on. What Deliver is handed after
		// the drain is lost, like any message to a stopping node.
		n.StopShards()
		dataCancel()
	}
}

// Stop ends the control loop, drains the shards (StopShards) and only
// then cancels their sends. When it returns none of the node's
// goroutines is left and the owner may close the store. A no-op on a
// node that never started or has stopped; not safe concurrently with
// itself.
func (n *Node) Stop() {
	if n.stop != nil {
		n.stop()
	}
}

func (n *Node) loop(ctx context.Context) {
	ticker := time.NewTicker(n.cfg.RoundPeriod)
	defer ticker.Stop()
	for {
		select {
		case env := <-n.mailbox:
			n.HandleMessage(ctx, env)
			// Bootstrap can finish on a handled message; readiness must
			// flip the moment it does, not a tick later.
			if n.ready() != n.status.Load().Ready {
				n.publishStatus()
			}
		case <-ticker.C:
			n.Tick(ctx)
			n.publishStatus()
		case <-ctx.Done():
			return
		}
	}
}

// Deliver takes one inbound envelope, from any goroutine: what a fabric
// decoded on its read loops, or what a client in the node's process
// sends it. A data-plane request goes straight to its shard's mailbox
// (DispatchData), so a get or a put never queues behind a Tick;
// everything else funnels into the control mailbox so the control plane
// stays single-threaded. It never blocks: a full mailbox drops the
// message — gossip redundancy covers it — but never silently; sustained
// growth of MailboxDropped means the round period is mis-sized for the
// load. A node that is not running drops everything.
func (n *Node) Deliver(env transport.Envelope) {
	if !n.external.Load() {
		n.drops.Inc()
		return
	}
	if n.DispatchData(env) {
		return
	}
	select {
	case n.mailbox <- env:
	default:
		n.drops.Inc()
	}
}

// MailboxDepth returns the control mailbox's current depth.
func (n *Node) MailboxDepth() int { return len(n.mailbox) }

// MailboxCapacity returns the control mailbox's bound.
func (n *Node) MailboxCapacity() int { return controlMailboxCap }

// MailboxDropped returns how many envelopes Deliver discarded: the
// control mailbox was full, or the node was not running. Shard mailbox
// overflow is ShardDropped.
func (n *Node) MailboxDropped() uint64 { return n.drops.Load() }

// Status returns what the control loop last published, from any
// goroutine: at most one tick stale, never racing the loop's live
// state. Valid once Start has run (and still after Stop).
func (n *Node) Status() obs.Status { return *n.status.Load() }

// ready is the readiness predicate on live state. Control loop only.
func (n *Node) ready() bool { return n.currentSlice() >= 0 && n.BootstrapDone() }

// publishStatus snapshots the node into an immutable obs.Status for
// concurrent readers. Control loop only (plus once before it starts).
func (n *Node) publishStatus() {
	st := &obs.Status{
		Counters:          n.Metrics().Snapshot(),
		Slice:             n.currentSlice(),
		BootstrapDone:     n.BootstrapDone(),
		BootstrapFellBack: n.BootstrapFellBack(),
		Ready:             n.ready(),
	}
	switch {
	case st.Slice < 0:
		st.Reason = "slice not yet assigned"
	case !st.BootstrapDone:
		st.Reason = "bootstrap in progress"
	}
	n.status.Store(st)
}
