// Data-plane sharding: the node's put/get/delete path partitioned by
// key hash into independent shard states.
//
// A dataShard owns what the data handlers mutate per request — the
// dedup cache, the relay RNG and the counters — so shards can run on
// several goroutines at once without touching each other's state. The
// epidemic control plane (PSS, slicing, aggregation, anti-entropy,
// bootstrap) stays on the node's single-threaded loop; shards see its
// routing decisions through an immutable routeView snapshot the control
// loop republishes after every tick and control message. Shards share
// two mutable structures: the store, safe for concurrent use by
// contract, and the node's put window (relayWindow), behind its lock.
//
// One runtime, whoever drives it: a data envelope is handled inside a
// run (see run), on its key's shard, and routes by the snapshot alone.
// On a running node (StartShards: live nodes, in-process clusters)
// DispatchData queues it on the shard's mailbox, and a wake-up of the
// node's shard goroutines drains what every idle shard has queued as one
// run — or, for an envelope that finds its shard idle and nothing behind
// it (a client's get, a paced client's put, a mate's relay copy that goes
// no further), the fabric goroutine that read it drains it at once.
// Either way a run holds the run token of every shard it drains, so one
// goroutine at a time touches a shard. On a caller-driven node
// (simulations, bench/traced, tests) HandleMessage is that goroutine: it
// brings the snapshot up to date and drains a run of one envelope.
//
// A key's requests always hash to the same shard, so per-shard dedup
// caches lose nothing: two deliveries of one request id meet in the same
// cache. A mate's batched relay names keys of several shards, so the put
// window is the node's, not a shard's: every run files relay copies in
// it, and every commit holds its lock through the store write. A delete
// or a read of a key, on whichever shard, therefore lands after every
// copy of the key filed before it.
package core

import (
	"context"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"dataflasks/internal/gossip"
	"dataflasks/internal/metrics"
	"dataflasks/internal/obs"
	"dataflasks/internal/pss"
	"dataflasks/internal/sim"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// shardMailboxCap bounds each shard's mailbox; overflow drops the
// message (counted per shard), which epidemic redundancy tolerates.
const shardMailboxCap = 1024

// shardSalt decorrelates the shard hash from slicing.KeySlice: all of
// one node's keys share a slice, so the shard partition must come from
// an independent hash of the same keys.
const shardSalt = 0x9e3779b97f4a7c15

// shardRNGSalt decorrelates per-shard RNG streams from the node's.
const shardRNGSalt = 0x5a4dbeef

// coalesceMax is the put accumulation window: intra-slice relay puts
// (which carry no ack obligation) wait in the node's window
// (relayWindow) and land in one store.PutBatch — one lock acquisition
// and, in the log engine, one group-commit fsync — with the next run's
// commit, at the next round (Node.Tick) or once this many wait,
// whichever comes first. Deletes and client batches commit the window
// first, and a read of a windowed key waits for the commit that stores
// it, so a node still observes its own writes. It also bounds the
// envelopes one run takes, across all the shards it takes them from.
const coalesceMax = 64

// shardIndex maps a key to its owning shard (FNV-1a over the key,
// salted so it is independent of the slice hash).
func shardIndex(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(14695981039346656037) ^ shardSalt
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(shards))
}

// RequestKey classifies a message: data-plane requests
// return their routing key (batches route by first key, matching the
// target-slice choice in handleData) and true; everything else —
// control protocols, mate discovery, client-bound acks — returns
// false.
func RequestKey(msg interface{}) (string, bool) {
	req, ok := msg.(request)
	if !ok {
		return "", false
	}
	key, _ := req.routeKey()
	return key, true
}

// routeView is the control plane's routing state as one immutable
// snapshot: slice identity, gossip budgets, the mate ids intra-slice
// relays sample from and the PSS view — each peer with the slice it
// advertises — the global phase routes by. The control plane replaces it
// (routeChanged) after everything that can move one of these; a data
// handler loads it once per envelope and never mutates it — sampling
// draws indexes into the shard's scratch buffer.
type routeView struct {
	slice      int32
	sliceCount int
	fanout     int
	putTTL     uint8
	getTTL     uint8
	intraTTL   uint8
	mates      []transport.NodeID
	peers      []pss.Descriptor
}

// dataShard is one data-plane partition's private state.
type dataShard struct {
	n  *Node
	id int

	// mailbox carries queued data envelopes once StartShards ran (nil on
	// a caller-driven node); drops counts producer-side overflow.
	mailbox chan transport.Envelope
	drops   metrics.SharedCounter

	// token is the run token. The run holding it (r) is the only one that
	// takes envelopes from the mailbox or handles them, so it alone
	// touches the state below. stopped is set under it once the shard's
	// final drain ran: no run takes the shard after. solo is the run of
	// one the shard's own holders use — an inline get, the stop drain, a
	// caller-driven node's envelope.
	token   sync.Mutex
	r       *run
	solo    run
	stopped bool

	// dedup and rng are this shard's request suppression cache and
	// relay-sampling stream; picks is the scratch buffer relay samples
	// are drawn into (valid until the shard's next draw).
	dedup *gossip.Dedup
	rng   *rand.Rand
	picks []int

	// met absorbs every counter the data handlers touch; reads merge
	// it with the control loop's NodeMetrics (Node.Metrics).
	met metrics.ShardCounters
}

// run is one drain: the shards it took — their run tokens held, each
// with how many envelopes it takes from that shard's mailbox in the
// current cycle — what they collected for the cycle's commit, and the
// acks and get replies they produced, in that order, until the next flush
// sends them (see reply). entries are the slice-entry puts: the commit
// stores each with the node's window and owes it its ack and its
// intra-slice phase. gets are the gets of keys a put was waiting to
// store, in arrival order: the commit serves them after its store write.
// A cycle's end (finish) is the put path's one commit if it collected
// either, one frame per origin for the answers and one batched relay; a
// commit that carries its answers (see commit) takes the next cycle
// instead, and the answers leave with that cycle's. inline marks a solo
// run that serves a client's get on the goroutine that read it
// (runIdle). A wake-up's run belongs to its shard goroutine; every
// other run is a shard's solo.
type run struct {
	shards  []*dataShard
	queued  []int
	entries []entryPut
	gets    []waitingGet
	answers []answer
	inline  bool
}

// relayWindow is the node's put window (see coalesceMax): the
// intra-slice relay copies waiting for the next commit, in arrival order,
// and their (key, version) pairs, so a copy that arrives twice — a
// client's retry under a new request id — waits once. A run of any shard
// files into it. mu guards both and is held through every commit's store
// write, so the window has one order: a delete, which commits the window
// first, lands after every copy filed before it, whichever shard filed
// it, and a get that found its key here is served after the write that
// stores it.
type relayWindow struct {
	mu   sync.Mutex
	objs []store.Object
	seen map[objRef]struct{}
}

// objRef identifies one (key, version) pair in the window.
type objRef struct {
	key     string
	version uint64
}

// entryPut is a collected slice-entry put: the request and the peer it
// came from.
type entryPut struct {
	m    *PutRequest
	from transport.NodeID
}

// waitingGet is a get that waits for its run's commit (see waits), and
// the peer it came from.
type waitingGet struct {
	m    *GetRequest
	from transport.NodeID
}

// answer is a queued ack or get reply and the origin it goes to.
type answer struct {
	to  transport.NodeID
	msg interface{}
}

// relayBatchValueMax bounds the values that share a batched intra relay
// or a reply batch: a run has at most coalesceMax requests, so the frame
// stays small, and a larger value gains nothing from saving one frame
// header.
const relayBatchValueMax = 64 << 10

// dedupCapacity bounds a node's request-id suppression cache.
const dedupCapacity = 8192

// newShards builds the per-shard states. The dedup capacity is divided
// across shards: a request id only ever reaches the shard its key
// hashes to.
func newShards(n *Node, cfg Config) []*dataShard {
	count := cfg.DataShards
	dedupCap := dedupCapacity / count
	if dedupCap < 128 {
		dedupCap = 128
	}
	shards := make([]*dataShard, count)
	for i := range shards {
		s := &dataShard{
			n:     n,
			id:    i,
			dedup: gossip.NewDedup(dedupCap),
			rng:   sim.RNG(cfg.Seed, uint64(n.id)*1000003+uint64(i)^shardRNGSalt),
		}
		shards[i] = s
	}
	return shards
}

// shardFor returns the shard owning key.
func (n *Node) shardFor(key string) *dataShard {
	return n.shards[shardIndex(key, len(n.shards))]
}

// StartShards moves the data plane onto shard goroutines, one per
// shard: every shard gets a mailbox, and every goroutine waits on the
// node's one wake channel for runs. The window's round commit stays
// Node.Tick's, whoever calls it. ctx bounds the sends shard
// handlers make (acks, replies, relays); the owner must keep it alive
// until StopShards returns, or the final drain could not ack what it
// applies. Call at most once, before messages flow.
func (n *Node) StartShards(ctx context.Context) {
	if n.external.Load() {
		panic("core: StartShards called twice")
	}
	n.shardStop = make(chan struct{})
	n.shardCtx = ctx
	n.wake = make(chan struct{}, 1)
	for _, s := range n.shards {
		s.mailbox = make(chan transport.Envelope, shardMailboxCap)
		s.stopped = false
	}
	// Batched relays carry ids this node mints: the clock (a microsecond
	// per step, faster than a node mints) keeps a restarted node clear
	// of the ids its mates' dedup caches hold from its previous life.
	n.relaySeq.Store(uint32(time.Now().UnixNano() >> 10))
	n.publishRoute()
	n.external.Store(true)
	for _, s := range n.shards {
		n.shardWG.Add(1)
		go n.runShard(ctx, s)
	}
}

// StopShards drains and stops the shard goroutines: each one consumes
// what its shard's mailbox already holds and exits, and then the window
// is committed, so no accepted write is lost between the last round and
// the store closing. It returns after every shard goroutine is gone, so
// the owner can close the store next without racing an in-flight write
// ("drain before close"). Safe to call when shards never started; not
// safe concurrently with StartShards.
func (n *Node) StopShards() {
	if !n.external.Load() {
		return
	}
	close(n.shardStop)
	n.shardWG.Wait()
	// Relay copies owe no ack: a failed write loses what repair restores.
	_ = n.win.commit(n.st, &n.shards[0].met, nil)
	n.external.Store(false)
}

// DispatchData routes a data-plane envelope to its owning shard. It
// reports false when the caller must deliver the envelope to
// HandleMessage instead: the node is caller-driven, or the message is
// not data-plane. Safe from any goroutine: fabric handlers call it first
// and fall back to the control loop's mailbox when it declines, so a get
// or a put never waits behind a Tick.
//
// Mostly the envelope is queued on the shard's mailbox (a full mailbox
// drops it and counts it), and the shard goroutines are woken unless a
// run is in progress: that run wakes them as it ends (see wakeRun), so
// a burst that arrives during one run is the next run, whole, not one
// run per shard. An envelope that finds its shard idle is run on the
// calling goroutine instead (runIdle) when the fabric has no further
// frame of its stream in hand (env.Last) and it is one of three kinds:
//   - a client's get on its first hop, whose key the node's window
//     neither holds nor is committing (serving it needs no commit, so it
//     never waits on the disk);
//   - a client's put on its first hop from a paced stream (env.Paced),
//     whose sender waits for its ack before it writes again: its run
//     commits, acks and relays here, and the read loop has nothing to
//     queue meanwhile;
//   - a mate's relay copy (PutRequest or PutBatchRequest, Intra) whose
//     run sends nothing (routeView.quiet): it is filed in the window, or
//     commits a full one.
//
// The first two came in on a client's connection, and the third sends
// nothing, so no node-to-node read loop ever waits on a send. Either way
// it is the same drain; inline, it saves the hand-off to a shard
// goroutine.
func (n *Node) DispatchData(env transport.Envelope) bool {
	if !n.external.Load() {
		return false
	}
	key, ok := RequestKey(env.Msg)
	if !ok {
		return false
	}
	s := n.shardFor(key)
	if env.Last && n.runIdle(s, key, env) {
		return true
	}
	select {
	case s.mailbox <- env:
		if n.running.Load() == 0 {
			n.signal()
		}
	default:
		s.drops.Inc()
	}
	return true
}

// inlineCount is DispatchData's rule for what may run on the goroutine
// that read env, over snapshot v: it returns the counter such a run
// counts in and by how much, or 0 when env must be queued.
func inlineCount(v *routeView, env transport.Envelope) (metrics.Counter, int) {
	switch m := env.Msg.(type) {
	case *GetRequest:
		if m.TTL == TTLUnset {
			return metrics.InlineGets, 1
		}
	case *PutRequest:
		if m.TTL == TTLUnset && env.Paced || m.Intra && v.quiet(env.From, m.TTL) {
			return metrics.InlinePuts, 1
		}
	case *PutBatchRequest:
		if m.Intra && v.quiet(env.From, m.TTL) {
			return metrics.InlinePuts, len(m.Objs)
		}
	}
	return 0, 0
}

// quiet reports whether a mate's relay copy from from, carrying ttl, goes
// no further (see passOn): its TTL is spent, or v names no mate but from.
func (v *routeView) quiet(from transport.NodeID, ttl uint8) bool {
	if ttl == 0 {
		return true
	}
	for _, id := range v.mates {
		if id != from {
			return false
		}
	}
	return true
}

// runIdle runs env on the calling goroutine, a run of one over the
// snapshot that admitted it (inlineCount), if the shard is idle — its
// run token free, nothing queued, not stopped — and, for a get, the
// window neither holds a copy of key nor is locked by a commit in
// progress; it reports whether it did. That check is the get's place in
// the window's order: every copy of key filed before it is in the store,
// and a copy filed after it comes after the get, so the run does not
// look at the window again and never waits for its lock. A put needs no
// such check: its run's commit takes the window's lock like any other. A
// producer that queued on the shard meanwhile may have woken a run that
// found it held, so the shard's mailbox is checked again once the token
// is free.
func (n *Node) runIdle(s *dataShard, key string, env transport.Envelope) bool {
	v := n.routeSnap.Load()
	counter, count := inlineCount(v, env)
	if count == 0 || !s.token.TryLock() {
		return false
	}
	get := counter == metrics.InlineGets
	if s.stopped || len(s.mailbox) > 0 || get && n.win.busy(key) {
		s.token.Unlock()
		return false
	}
	s.met.Add(counter, uint64(count))
	s.solo.inline = get
	n.runOne(n.shardCtx, s, v, env)
	s.recheck()
	return true
}

// signal wakes one shard goroutine, unless a wake-up is pending already.
func (n *Node) signal() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// recheck wakes the shard goroutines if s has mail: whoever releases a
// shard's run token outside a wake-up's run calls it, since a run woken
// meanwhile found the shard held and left its mail alone.
func (s *dataShard) recheck() {
	if len(s.mailbox) > 0 {
		s.n.signal()
	}
}

// runShard is one shard goroutine: wake-ups (wakeRun), then that
// shard's final drain on stop — each under the run tokens it takes,
// taken before a mailbox is touched, so what was queued is handled in
// arrival order and before any later get is served inline.
func (n *Node) runShard(ctx context.Context, s *dataShard) {
	defer n.shardWG.Done()
	var r run
	for {
		select {
		case <-n.wake:
			n.wakeRun(ctx, &r, s.id)
		case <-n.shardStop:
			n.stopShard(ctx, s)
			return
		}
	}
}

// wakeRun is one wake-up: it takes a cycle (takeCycle) starting at shard
// home and drains it as one run. A run that took nothing — every shard
// with mail was held elsewhere — wakes nobody, since each holder checks
// the mailboxes as it lets go. Producers wake nobody while a run is in
// progress (running): a continuing run takes what was queued on idle
// shards into its next cycle, and a run checks every mailbox once it
// ended and wakes a goroutine for what was queued meanwhile.
func (n *Node) wakeRun(ctx context.Context, r *run, home int) {
	if !n.takeCycle(r, home) {
		return
	}
	n.drain(ctx, r)
	n.running.Add(-1)
	for _, s := range n.shards {
		if len(s.mailbox) > 0 {
			n.signal()
			return
		}
	}
}

// takeCycle fills r's next cycle: starting at shard home, every shard
// with queued envelopes that the run holds already or can take (run token
// free, not stopped), up to coalesceMax envelopes in all. The run's own
// shards are told apart by its shard list alone: another run's shard is
// not the caller's to look into. A full cycle wakes another goroutine at
// once, to take what is left in parallel. It reports whether the cycle
// took anything.
func (n *Node) takeCycle(r *run, home int) bool {
	clear(r.queued)
	budget := coalesceMax
	for i := range n.shards {
		s := n.shards[(home+i)%len(n.shards)]
		if len(s.mailbox) == 0 {
			continue
		}
		held := slices.Index(r.shards, s)
		if held < 0 && !s.token.TryLock() {
			continue
		}
		// Only the token's holder receives, so the count cannot shrink.
		q := min(len(s.mailbox), budget)
		switch {
		case held >= 0:
			r.queued[held] = q
		case s.stopped:
			s.token.Unlock()
			continue
		case q == 0:
			// The run that held the token drained the mail before letting
			// go. Taken, the shard would make a cycle that took nothing,
			// which wakeRun leaves without draining: the token kept and the
			// run counted in Node.running, so no producer would wake
			// anybody. Let go and check the mailbox as any holder does.
			s.token.Unlock()
			s.recheck()
			continue
		default:
			if len(r.shards) == 0 {
				n.running.Add(1)
			}
			r.take(s, q)
		}
		if budget -= q; budget == 0 {
			n.signal()
			break
		}
	}
	return budget < coalesceMax
}

// take adds s, whose run token the caller holds, to the run, with the
// envelopes the run takes from its mailbox.
func (r *run) take(s *dataShard, queued int) {
	s.r = r
	r.shards = append(r.shards, s)
	r.queued = append(r.queued, queued)
}

// drain handles a run cycle by cycle: the queued envelopes the cycle
// took from each shard, in arrival order shard by shard — received
// without waiting, since the run holds the token and counted them there —
// then the cycle's end, which may take the next cycle (finish); then it
// lets go of every token.
func (n *Node) drain(ctx context.Context, r *run) {
	for {
		for i, s := range r.shards {
			for q := r.queued[i]; q > 0; q-- {
				n.handleEnv(ctx, s, n.routeSnap.Load(), <-s.mailbox)
			}
		}
		if !r.finish(ctx) {
			break
		}
	}
	r.release()
}

// runOne drains env alone on s, whose run token the caller holds, as
// s's solo run over routing snapshot v, and lets go of the token.
func (n *Node) runOne(ctx context.Context, s *dataShard, v *routeView, env transport.Envelope) {
	s.solo.take(s, 0)
	n.handleEnv(ctx, s, v, env)
	n.drain(ctx, &s.solo)
}

// handleEnv hands one delivered data envelope to the request handler
// on its shard, routed by snapshot v.
func (n *Node) handleEnv(ctx context.Context, s *dataShard, v *routeView, env transport.Envelope) {
	s.met.Inc(metrics.MsgRecv)
	n.handleData(ctx, s, v, env.From, env.Msg.(request)) // only requests reach a shard
}

// finish ends a cycle of the run. Its entry puts and the node's window
// land as one commit if it collected entry puts or has gets waiting, so
// with W puts in flight a node pays about one group-commit wait per
// cycle, not one per put, per shard or per read of a key just written.
// Relay copies alone do not end a cycle with a commit: they keep waiting
// for the round or a later commit. It reports whether the run goes on: a
// commit that carries its answers took the next cycle. Otherwise the
// run's answers leave now, one frame per origin (see reply).
func (r *run) finish(ctx context.Context) bool {
	if (len(r.entries) > 0 || len(r.gets) > 0) && r.commit(ctx, true) {
		return true
	}
	r.shards[0].flush(ctx)
	return false
}

// next takes the run's next cycle (takeCycle, from the run's first
// shard) and reports whether it took anything; a stopping node takes
// none, so StopShards' drains find the shards free.
func (r *run) next() bool {
	n := r.shards[0].n
	select {
	case <-n.shardStop:
		return false
	default:
	}
	return n.takeCycle(r, r.shards[0].id)
}

// release lets go of every run token the run holds, the first shard's
// last: a solo run belongs to that shard, and whoever takes its token
// next may start the run again, so it forgets its inline mark first.
func (r *run) release() {
	shards := r.shards
	r.shards, r.queued, r.inline = shards[:0], r.queued[:0], false
	for i := len(shards) - 1; i >= 0; i-- {
		s := shards[i]
		shards[i] = nil
		s.r = nil
		s.token.Unlock()
	}
}

// stopShard is a shard goroutine's last step: it drains what s's
// mailbox held when it began, and marks s stopped — no run takes it
// after. What producers queue meanwhile is left where it is, unhandled
// and so unanswered, like a drop: a producer that keeps the mailbox full
// cannot hold the stop. StopShards commits the window once every shard
// has stopped.
func (n *Node) stopShard(ctx context.Context, s *dataShard) {
	s.token.Lock()
	for left := len(s.mailbox); ; {
		q := min(left, len(s.mailbox), coalesceMax)
		if q == 0 {
			break
		}
		left -= q
		s.solo.take(s, q)
		n.drain(ctx, &s.solo)
		s.token.Lock()
	}
	s.stopped = true
	s.token.Unlock()
}

// publishRoute replaces the routing snapshot with the control plane's
// present state. It and the control plane are the only readers of the
// slicer, the PSS view, the intra view and the node's TTL and fanout
// arithmetic; the data handlers read what it stored.
func (n *Node) publishRoute() {
	n.routeStale = false
	n.routeSnap.Store(&routeView{
		slice:      n.currentSlice(),
		sliceCount: n.slicer.SliceCount(),
		fanout:     n.fanout(),
		putTTL:     n.putTTL(),
		getTTL:     n.getTTL(),
		intraTTL:   n.intraTTL(),
		mates:      n.intra.IDs(),
		peers:      n.pssP.View(),
	})
}

// routeChanged follows everything that can move a routing input: a tick,
// a handled control message, Bootstrap, SetSliceCount. With shard
// goroutines reading the snapshot it is replaced at once. On a
// caller-driven node nobody reads it before the caller's next data
// envelope or Slice call, and control messages outnumber those many
// times over in a simulation, so it is only marked stale and freshRoute
// rebuilds it then.
func (n *Node) routeChanged() {
	if n.external.Load() {
		n.publishRoute()
	} else {
		n.routeStale = true
	}
}

// freshRoute brings a caller-driven node's snapshot up to date. The
// stale mark is the driving goroutine's alone: a running node never
// reads it.
func (n *Node) freshRoute() {
	if n.routeStale {
		n.publishRoute()
	}
}

// sample draws up to k distinct indexes of [0, n) uniformly without
// replacement (Floyd's algorithm: k draws, nothing of size n touched)
// into the shard's scratch buffer. The result is valid until the next
// draw on this shard.
func (s *dataShard) sample(n, k int) []int {
	out := s.picks[:0]
	if k > n {
		k = n
	}
	for j := n - k; j < n; j++ {
		t := s.rng.IntN(j + 1)
		for _, p := range out {
			if p == t {
				t = j // t is taken; j cannot be, it only now became eligible
				break
			}
		}
		out = append(out, t)
	}
	s.picks = out
	return out
}

// hinted collects, into the shard's scratch buffer, the indexes of the
// peers that advertise slice target, from excepted.
func (s *dataShard) hinted(peers []pss.Descriptor, target int32, from transport.NodeID) []int {
	out := s.picks[:0]
	for i, d := range peers {
		if d.Slice == target && d.ID != from {
			out = append(out, i)
		}
	}
	s.picks = out
	return out
}

// relayGlobal forwards a request in its global phase. Its TTL is
// TTLUnset on the first hop from a client, which stamps budget — clients
// know neither the system size nor the slice count.
//
// When the view names peers that advertise the target slice (the
// sender excepted), the request goes to ONE of them, chosen uniformly,
// the next on a synchronous send error. If that descriptor was stale
// the recipient is not in the slice and carries on the global phase
// with the TTL that is left: it may take one directed hop of its own,
// but that copy carries Flood, so a second stale recipient falls back
// to the fanout. Unbounded, a chain of stale hints can end at a node
// that has already seen the request, and strand it; two hops cannot
// (the sender is never a candidate).
//
// With no hinted peer, every hinted send failing, or Flood set (the
// request is on the dependable path already), the request goes to
// fanout random peers as the paper has it. One copy is shared across
// peers because receivers never mutate messages.
func (s *dataShard) relayGlobal(ctx context.Context, v *routeView, from transport.NodeID, target int32, req request, budget uint8) {
	r := req.routing()
	ttl, first := r.TTL, r.TTL == TTLUnset
	if first {
		ttl = budget
	}
	if ttl == 0 {
		return
	}
	peers, fanout := v.peers, v.fanout
	if len(peers) == 0 {
		return
	}
	s.flush(ctx)
	s.met.Inc(metrics.RequestsRelayed)
	copyWith := func(flood bool) request {
		fwd := req.hop()
		fr := fwd.routing()
		fr.TTL, fr.Flood = ttl-1, flood
		return fwd
	}
	var hinted []int
	if !r.Flood {
		hinted = s.hinted(peers, target, from)
	}
	if len(hinted) > 0 {
		fwd := copyWith(!first)
		for len(hinted) > 0 {
			i := s.rng.IntN(len(hinted))
			if s.sendData(ctx, peers[hinted[i]].ID, fwd) {
				s.met.Inc(metrics.RequestsDirected)
				return
			}
			hinted[i] = hinted[len(hinted)-1]
			hinted = hinted[:len(hinted)-1]
		}
	}
	s.met.Inc(metrics.RequestsFlooded)
	fwd := copyWith(r.Flood)
	for _, i := range s.sample(len(peers), fanout) {
		s.sendData(ctx, peers[i].ID, fwd)
	}
}

// relayIntra forwards a request to a sample of the intra-slice view,
// never back to from: the peer the copy came from already holds it, so
// the echo could only be suppressed on arrival (in a two-node slice it
// was one certain duplicate per put). Further back than one hop the
// request does not say where it has been; the dedup cache covers that.
func (s *dataShard) relayIntra(ctx context.Context, v *routeView, from transport.NodeID, fwd interface{}) {
	mates := v.mates
	skip := -1
	for i, id := range mates {
		if id == from {
			skip = i
			break
		}
	}
	n := len(mates)
	if skip >= 0 {
		n--
	}
	picks := s.sample(n, intraFanout)
	if len(picks) == 0 {
		return
	}
	s.flush(ctx)
	s.met.Inc(metrics.RequestsRelayed)
	for _, i := range picks {
		if skip >= 0 && i >= skip {
			i++
		}
		s.sendData(ctx, mates[i], fwd)
	}
}

// sendData hands one data-plane message to the fabric, counted on the
// shard; it reports whether the fabric took it.
func (s *dataShard) sendData(ctx context.Context, to transport.NodeID, msg interface{}) bool {
	s.met.Inc(metrics.MsgSent)
	s.met.Inc(metrics.DataSent)
	if err := s.n.raw.Send(ctx, to, msg); err != nil {
		s.met.Inc(metrics.MsgDropped)
		return false
	}
	return true
}

// reply answers a client: it queues an ack or a get reply for the run's
// next flush, which sends what the run produced for one origin as one
// frame, whichever of its shards produced it. No answer waits for a store
// write: the queue is flushed before every one (commit), before every
// relay send and at the end of the run. A commit whose write finds mail
// waiting keeps the answers it produced queued into the run's next cycle
// (see commit), whose flush sends them with that cycle's own, so a
// pipelined burst costs one frame per origin per store write. An answer
// that must go alone is sent at once — a traced request's, so /trace and
// span readers still join frames to requests by id, and a get reply over
// relayBatchValueMax.
func (s *dataShard) reply(ctx context.Context, to transport.NodeID, msg interface{}, alone bool) {
	if alone {
		s.met.Inc(metrics.AnswerFrames)
		s.sendData(ctx, to, msg)
		return
	}
	s.r.answers = append(s.r.answers, answer{to: to, msg: msg})
}

// flush sends the run's queued answers: an origin's only one as itself,
// two or more as one Replies in the order they were queued. Origins go
// in the order of their first answer. A run is at most coalesceMax
// envelopes a cycle, so scanning the queue per origin is cheaper than
// grouping it in a map. It returns how many frames it sent.
func (s *dataShard) flush(ctx context.Context) (frames int) {
	q := s.r.answers
	for i, a := range q {
		if a.msg == nil {
			continue // sent inside an earlier origin's batch
		}
		frames++
		var batch []interface{}
		for j := i + 1; j < len(q); j++ {
			if q[j].to == a.to {
				if batch == nil {
					batch = []interface{}{a.msg}
				}
				batch = append(batch, q[j].msg)
				q[j].msg = nil
			}
		}
		if batch == nil {
			s.sendData(ctx, a.to, a.msg)
			continue
		}
		s.met.Add(metrics.SharedAnswers, uint64(len(batch)))
		s.sendData(ctx, a.to, &Replies{Msgs: batch})
	}
	s.met.Add(metrics.AnswerFrames, uint64(frames))
	clear(q)
	s.r.answers = q[:0]
	return frames
}

// traceOp journals one traced request's lifecycle step, stamped with
// the 1-based id of the shard that handled it (0 in /trace output
// means a control-plane event). The ring's publish step is one atomic
// claim plus one pointer store, so shard goroutines and the control
// loop journal into the same ring safely.
func (s *dataShard) traceOp(kind obs.TraceKind, traceID uint64, key string, bytes, objects int) {
	if s.n.trace == nil || traceID == 0 {
		return
	}
	s.n.trace.Add(obs.Event{
		Kind: kind, TraceID: traceID, Key: key,
		Bytes: uint64(bytes), Objects: uint64(objects),
		Shard: uint64(s.id) + 1,
	})
}

// traceRelay journals that a traced request is about to be passed on,
// under its kind's relay event and with a batch's size.
func (s *dataShard) traceRelay(req request, key string) {
	r := req.routing()
	if s.n.trace == nil || r.TraceID == 0 {
		return
	}
	kind, objects := obs.TracePutRelay, 0
	switch m := req.(type) {
	case *PutBatchRequest:
		objects = len(m.Objs)
	case *GetRequest:
		kind = obs.TraceGetRelay
	case *DeleteBatchRequest:
		kind, objects = obs.TraceDeleteRelay, len(m.Items)
	}
	s.traceOp(kind, r.TraceID, key, 0, objects)
}

// file adds a mate's relay copies to the node's window, for the next
// commit. A copy no store takes (store.CheckObject) never joins it. A
// window that reaches coalesceMax is committed at once, by the run's
// commit, and the copies after it wait for the next.
func (s *dataShard) file(ctx context.Context, objs ...store.Object) {
	w := &s.n.win
	for len(objs) > 0 {
		w.mu.Lock()
		for len(objs) > 0 && len(w.objs) < coalesceMax {
			w.add(objs[0])
			objs = objs[1:]
		}
		full := len(w.objs) >= coalesceMax
		w.mu.Unlock()
		if full {
			s.r.commit(ctx, false)
		}
	}
}

// add files one copy, unless the window holds its (key, version)
// already; the caller holds mu.
func (w *relayWindow) add(o store.Object) {
	if store.CheckObject(o.Key, o.Version, o.Value) != nil {
		return
	}
	ref := objRef{key: o.Key, version: o.Version}
	if w.seen == nil {
		w.seen = make(map[objRef]struct{}, coalesceMax)
	}
	if _, dup := w.seen[ref]; dup {
		return // same object via two request ids (client retry)
	}
	w.seen[ref] = struct{}{}
	// Messages are immutable, so referencing the value is safe; engines
	// copy on store.
	w.objs = append(w.objs, o)
}

// holds reports whether the window has a copy of key; the caller holds
// mu. The window is shorter than coalesceMax, so the scan is cheaper than
// a second index beside seen.
func (w *relayWindow) holds(key string) bool {
	for i := range w.objs {
		if w.objs[i].Key == key {
			return true
		}
	}
	return false
}

// busy reports, without waiting for mu, whether a get of key may have to
// wait for a store write: the window holds a copy of key, or mu is held —
// by a commit, which may be storing one.
func (w *relayWindow) busy(key string) bool {
	if !w.mu.TryLock() {
		return true
	}
	defer w.mu.Unlock()
	return w.holds(key)
}

// commit is the put path's one store write: the window's copies and then
// the objects of entries — a run's entry puts — land as one
// store.PutBatch (one lock pass and, in the log engine, one appended
// record batch and one group-commit wait for the lot), with mu held
// through the write, and met counts it. A write of one object is a
// store.Put — the same write to the engine, kept apart because
// bench/traced times lone puts as its store.put layer. Every object
// passed store.CheckObject on its way in, so only the store itself can
// fail the write (disk full, closed store), and then it fails whole. It
// returns the store's error, nil when there was nothing to write.
func (w *relayWindow) commit(st store.Store, met *metrics.ShardCounters, entries []entryPut) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	batch, copies := w.objs, len(w.objs)
	for _, e := range entries {
		m := e.m
		batch = append(batch, store.Object{Key: m.Key, Version: m.Version, Value: m.Value})
	}
	w.objs, w.seen = nil, nil
	if len(batch) == 0 {
		return nil
	}
	var err error
	if len(batch) == 1 {
		o := batch[0]
		err = st.Put(o.Key, o.Version, o.Value)
	} else {
		err = st.PutBatch(batch)
	}
	met.Inc(metrics.PutCommits)
	if err == nil {
		met.Add(metrics.PutsServed, uint64(len(batch)))
		met.Add(metrics.CoalescedPuts, uint64(copies))
	}
	return err
}

// collectPut files a slice-entry put in the run; its commit stores and
// acks it. A put no store takes (store.CheckObject) is refused here, so
// it can neither fail the commit's batch nor be acked or relayed.
func (s *dataShard) collectPut(from transport.NodeID, m *PutRequest) {
	if store.CheckObject(m.Key, m.Version, m.Value) != nil {
		return
	}
	s.r.entries = append(s.r.entries, entryPut{m: m, from: from})
}

// waits reports whether a get of key must wait for the run's commit: a
// put of key is among the run's entry puts, or a copy of it in the node's
// window. Unless the run is inline (runIdle checked the window for
// it), it waits for the window's lock, so a commit in progress lands
// first.
func (r *run) waits(w *relayWindow, key string) bool {
	for _, e := range r.entries {
		if e.m.Key == key {
			return true
		}
	}
	if r.inline {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.holds(key)
}

// commit is a run's store write (relayWindow.commit): the node window's
// relay copies and the run's entry puts. No entry put is acked unless
// the write succeeded, since acking a failed write would tell the client
// it is replicated when no one stored it, and acks leave only after the
// store returned. The gets that waited are served next, from the store,
// so their replies share the acks' frame — whichever commit stored their
// key, this one or one that emptied the window before it, such as the
// round's; one whose version the store still lacks goes on to the
// mates. The intra-slice phase starts either way, since mates may still
// succeed. The answers queued so far leave first: none waits for this
// write.
//
// At a cycle's end (last) the run carries on past the write if its
// pre-write flush sent a frame and it can take a next cycle (next): the
// relay leaves at once, and the acks and replies stay queued for that
// cycle's flush, one frame per origin with its answers instead of a
// second frame now. It reports whether it did. A cycle that answered
// nothing before its write — all puts — carries nothing: its acks would
// only wait, so they leave at once, before the relay.
func (r *run) commit(ctx context.Context, last bool) (carried bool) {
	s := r.shards[0]
	flushed := s.flush(ctx)
	entries, gets := r.entries, r.gets
	r.entries, r.gets = nil, nil
	err := s.n.win.commit(s.n.st, &s.met, entries)
	if carried = last && flushed > 0 && r.next(); carried {
		s.relayEntries(ctx, entries)
	}
	if err == nil {
		for _, e := range entries {
			m := e.m
			s.traceOp(obs.TracePutApply, m.TraceID, m.Key, len(m.Value), 1)
			s.ack(ctx, m, 0)
		}
	}
	if len(gets) > 0 {
		v := s.n.routeSnap.Load()
		for _, g := range gets {
			if !s.serveGet(ctx, v, g.m) {
				s.passOn(ctx, v, g.from, g.m)
			}
		}
	}
	if !carried {
		s.relayEntries(ctx, entries)
	}
	return carried
}

// batchedRelay reports whether an entry put may share its run's batched
// intra relay. A traced put goes alone so /trace can stitch it across
// hops, a Flood put keeps the request id under which the intra phases
// of its several entry points merge, a large value gains nothing.
func batchedRelay(m *PutRequest) bool {
	return m.TraceID == 0 && !m.Flood && len(m.Value) <= relayBatchValueMax
}

// relayEntries starts the intra-slice phase of a committed run. Two or
// more puts travel as ONE PutBatchRequest{Intra, NoAck} under an id
// this node mints (and marks seen in the shard an echo routes to, the
// first key's, so the echo is suppressed): one frame and one relay
// decision for all of them, whichever shards they came from, filed by
// the mate in its window. A lone put goes as the
// PutRequest{Intra} copy it always was.
func (s *dataShard) relayEntries(ctx context.Context, entries []entryPut) {
	v := s.n.routeSnap.Load()
	var objs []store.Object
	if len(entries) > 1 {
		for _, e := range entries {
			if m := e.m; batchedRelay(m) {
				objs = append(objs, store.Object{Key: m.Key, Version: m.Version, Value: m.Value})
			}
		}
	}
	if len(objs) < 2 {
		objs = nil
	}
	for _, e := range entries {
		if m := e.m; objs == nil || !batchedRelay(m) {
			s.traceOp(obs.TracePutRelay, m.TraceID, m.Key, 0, 0)
			fwd := *m
			fwd.enterSlice(v, false)
			s.relayIntra(ctx, v, e.from, &fwd)
		}
	}
	if objs != nil {
		fwd := &PutBatchRequest{Objs: objs, Routing: Routing{
			ID: gossip.MakeRequestID(s.n.id, s.n.relaySeq.Add(1)), NoAck: true,
		}}
		fwd.enterSlice(v, false)
		s.n.shardFor(objs[0].Key).dedup.Seen(fwd.ID)
		// No mate handed us the batch: sparing ourselves spares nobody.
		s.relayIntra(ctx, v, s.n.id, fwd)
	}
}

// ShardCount returns how many data-plane shards the node runs.
func (n *Node) ShardCount() int { return len(n.shards) }

// ShardMailboxCapacity returns the per-shard mailbox bound.
func (n *Node) ShardMailboxCapacity() int { return shardMailboxCap }

// ShardDepth returns shard i's current mailbox depth (0 before
// StartShards or for an out-of-range index). Safe from any goroutine.
func (n *Node) ShardDepth(i int) int {
	if i < 0 || i >= len(n.shards) {
		return 0
	}
	return len(n.shards[i].mailbox) // a nil channel's length is 0
}

// ShardDropped sums producer-side shard mailbox drops across shards.
func (n *Node) ShardDropped() uint64 {
	var total uint64
	for _, s := range n.shards {
		total += s.drops.Load()
	}
	return total
}
