// Data-plane sharding: the node's put/get/delete path partitioned by
// key hash into independent shard states.
//
// A dataShard owns everything the data handlers mutate — the dedup
// cache, the coalescing window, the relay RNG and the counters — so
// shards can run on several goroutines at once without touching each
// other's state. The epidemic control plane (PSS, slicing, aggregation,
// anti-entropy, bootstrap) stays on the node's single-threaded loop;
// shards see its routing decisions through an immutable routeView
// snapshot the control loop republishes after every tick and control
// message. The shared store is the only mutable structure shards touch
// concurrently, and store.Store is safe for concurrent use by
// contract.
//
// One runtime, whoever drives it: a data envelope is handled inside a
// run (see run), on its key's shard, and routes by the snapshot alone.
// On a running node (StartShards: live nodes, in-process clusters)
// DispatchData queues it on the shard's mailbox, and a wake-up of the
// node's shard goroutines drains what every idle shard has queued as one
// run — or, for a client's get that finds its shard idle, the fabric
// goroutine that read it drains it at once. Either way a run holds the
// run token of every shard it touches, so one goroutine at a time
// touches a shard. On a caller-driven node (simulations, bench/traced,
// tests) HandleMessage is that goroutine: it brings the snapshot up to
// date and drains a run of one envelope.
//
// A key's requests always hash to the same shard, so per-shard dedup
// caches and coalescing windows lose nothing: two deliveries of one
// request id meet in the same cache, and a read of a key observes every
// buffered put for it in its own shard's window. A delete batch names
// keys of several shards, so it commits the window of each (see
// takeItemOwners).
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
// (which carry no ack obligation) are buffered and land in one
// store.PutBatch — one lock acquisition and, in the log engine, one
// group-commit fsync — with the next slice-entry put's commit, at the
// next tick or once this many are buffered, whichever comes first.
// Deletes and client batches commit the buffer first, and a read of a
// buffered key waits for the commit that stores it, so a node still
// observes its own writes. It also bounds the envelopes one run takes,
// across all the shards it takes them from.
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
	// takes envelopes from the mailbox, drains, files, commits or ticks,
	// so it alone touches the state below. stopped is set under it once
	// the shard's final drain ran: no run takes the shard after. solo is
	// the run of one the shard's own holders use — an inline get, a tick,
	// the stop drain, a caller-driven node's envelope. parked is set under
	// it while a run that drains the mailbox has let go of the token to
	// wait for others (see waitFor): until that run takes it back, no one
	// else handles the mailbox's envelopes, and unparked signals the end.
	token    sync.Mutex
	r        *run
	solo     run
	stopped  bool
	parked   bool
	unparked sync.Cond

	// dedup and rng are this shard's request suppression cache and
	// relay-sampling stream; picks is the scratch buffer relay samples
	// are drawn into (valid until the shard's next draw).
	dedup *gossip.Dedup
	rng   *rand.Rand
	picks []int

	// met absorbs every counter the data handlers touch; reads merge
	// it with the control loop's NodeMetrics (Node.Metrics).
	met metrics.ShardCounters

	// tickDur observes shard-loop flush ticks, the per-shard analogue of
	// the node's tick histogram.
	tickDur metrics.LatencyHistogram

	// coalesce is this shard's put accumulation window (see
	// coalesceMax), in arrival order: intra-slice relay copies,
	// de-duplicated by (key, version) through coalesceSeen, and the
	// slice-entry puts of the run in progress. entries names the
	// latter: the commit step owes each its ack and its intra-slice
	// phase, at the end of the run. gets are the gets of keys the window
	// holds, in arrival order: the commit that empties the window serves
	// them after its store write, so the window is never empty while a
	// get waits on it.
	coalesce     []store.Object
	coalesceSeen map[objRef]struct{}
	entries      []entryPut
	gets         []waitingGet
}

// run is one drain: the shards it took — their run tokens held, each
// with how many envelopes it takes from that shard's mailbox — and the
// acks and get replies they produced, in that order, until the next
// flush sends them (see reply). A mate's batched relay or a delete batch
// can bring more shards in (takeOwners, takeItemOwners), with nothing to
// take from their mailboxes. Its end (finish) is the put path's one
// commit for every shard that collected entry puts or has gets waiting,
// one frame per origin for the answers and one batched relay. A
// wake-up's run belongs to its shard goroutine; every other run is a
// shard's solo.
type run struct {
	shards  []*dataShard
	queued  []int
	owed    []*dataShard // scratch: the shards a commit covers (finish, takeItemOwners)
	answers []answer
}

// entryPut is a collected slice-entry put: the request and the peer it
// came from.
type entryPut struct {
	m    *PutRequest
	from transport.NodeID
}

// waitingGet is a get that waits for its shard's window to be committed
// (see holds), and the peer it came from.
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
		s.unparked.L = &s.token
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
// node's one wake channel for runs and commits its own shard's
// coalescing window once per round period. ctx bounds the sends shard
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
// what its shard's mailbox already holds, commits the shard's coalescing
// window, and exits. It returns after every shard goroutine is gone,
// so the owner can close the store next without racing an in-flight
// write ("drain before close"). Safe to call when shards never
// started; not safe concurrently with StartShards.
func (n *Node) StopShards() {
	if !n.external.Load() {
		return
	}
	close(n.shardStop)
	n.shardWG.Wait()
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
// run per shard. A client's get is served inline instead, on the
// calling goroutine, when its shard is idle: it is on its first hop (so
// it came in on a client connection, and no node-to-node read loop ever
// waits on a send), the fabric has no further frame of its stream in
// hand (env.Last), the run token is free, nothing is queued ahead of it,
// and the shard's window holds no put of its key (serving it needs no
// commit, so it never waits on the disk). That saves the hand-off to a
// shard goroutine, and it is the same drain either way.
func (n *Node) DispatchData(env transport.Envelope) bool {
	if !n.external.Load() {
		return false
	}
	key, ok := RequestKey(env.Msg)
	if !ok {
		return false
	}
	s := n.shardFor(key)
	if m, get := env.Msg.(*GetRequest); get && env.Last && m.TTL == TTLUnset && n.serveIdle(s, key, env) {
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

// serveIdle drains env on the calling goroutine, a run of one, if the
// shard is idle — its run token free, nothing queued, neither stopped
// nor parked — and its window holds no put of key; it reports whether it
// did. A producer that queued on the shard meanwhile may have woken a
// run that found it held, so the shard's mailbox is checked again once
// the token is free.
func (n *Node) serveIdle(s *dataShard, key string, env transport.Envelope) bool {
	if !s.token.TryLock() {
		return false
	}
	if s.stopped || s.parked || len(s.mailbox) > 0 || s.holds(key) {
		s.token.Unlock()
		return false
	}
	s.met.Inc(metrics.InlineGets)
	n.runOne(n.shardCtx, s, env)
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

// runShard is one shard goroutine: wake-ups (wakeRun), a per-round
// commit of its own shard's window, then that shard's final drain on
// stop — each under the run tokens it takes, taken before a mailbox is
// touched, so what was queued is handled in arrival order and before
// any later get is served inline.
func (n *Node) runShard(ctx context.Context, s *dataShard) {
	defer n.shardWG.Done()
	ticker := time.NewTicker(n.cfg.RoundPeriod)
	defer ticker.Stop()
	var r run
	for {
		select {
		case <-n.wake:
			n.wakeRun(ctx, &r, s.id)
		case <-ticker.C:
			t0 := time.Now()
			s.tick(ctx)
			s.tickDur.Observe(time.Since(t0))
			s.recheck()
		case <-n.shardStop:
			n.stopShard(ctx, s)
			return
		}
	}
}

// wakeRun is one wake-up: it takes, starting at shard home, every idle
// shard with queued envelopes (run token free, neither stopped nor
// parked), up to coalesceMax envelopes in all, and drains them as one
// run. A full run
// wakes another goroutine at once, to take what is left in parallel; a
// run that took nothing — every shard with mail was held elsewhere —
// wakes nobody, since each holder checks the mailboxes as it lets go.
// Producers wake nobody while a run is in progress (running), so a run
// checks every mailbox once it ended and wakes a goroutine for what was
// queued meanwhile.
func (n *Node) wakeRun(ctx context.Context, r *run, home int) {
	budget := coalesceMax
	for i := range n.shards {
		s := n.shards[(home+i)%len(n.shards)]
		if len(s.mailbox) == 0 || !s.token.TryLock() {
			continue
		}
		q := min(len(s.mailbox), budget)
		if s.stopped || s.parked || q == 0 {
			s.token.Unlock()
			continue
		}
		if len(r.shards) == 0 {
			n.running.Add(1)
		}
		r.take(s, q)
		if budget -= q; budget == 0 {
			n.signal()
			break
		}
	}
	if len(r.shards) == 0 {
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

// take adds s, whose run token the caller holds, to the run, with the
// envelopes the run takes from its mailbox.
func (r *run) take(s *dataShard, queued int) {
	s.r = r
	r.shards = append(r.shards, s)
	r.queued = append(r.queued, queued)
}

// has reports whether the run holds s.
func (r *run) has(s *dataShard) bool {
	for _, t := range r.shards {
		if t == s {
			return true
		}
	}
	return false
}

// takeOwners brings the owner shard of every key of objs into the run,
// taking the run token of each one not yet held; it reports false as
// soon as an owner is busy — held by another run, or stopped. Owners
// taken before that stay in the run.
func (r *run) takeOwners(n *Node, objs []store.Object) bool {
	for i := range objs {
		o := n.shardFor(objs[i].Key)
		if r.has(o) {
			continue
		}
		if !o.token.TryLock() {
			return false
		}
		if o.stopped {
			o.token.Unlock()
			return false
		}
		r.take(o, 0)
	}
	return true
}

// takeItemOwners brings the owner shard of every item's key into the run
// and returns the owners, s — the batch's own shard — first. Unlike a
// relay (takeOwners) a delete cannot skip a busy owner: the put waiting
// in that owner's window would land after the delete and resurrect the
// object. An owner that is held elsewhere is waited for (waitFor).
func (r *run) takeItemOwners(n *Node, s *dataShard, items []DeleteItem) []*dataShard {
	owners := append(r.owed[:0], s)
	busy := false
	for _, it := range items {
		o := n.shardFor(it.Key)
		if slices.Contains(owners, o) {
			continue
		}
		owners = append(owners, o)
		if r.has(o) {
			continue
		}
		if o.token.TryLock() {
			r.take(o, 0)
		} else {
			busy = true
		}
	}
	if busy {
		r.waitFor(n, owners)
	}
	r.owed = owners
	return owners
}

// waitFor takes the run token of every one of owners the run does not
// hold yet, waiting for those held elsewhere. A run never waits for a
// token while it holds one: two delete batches led from opposite shards,
// each holding its own shard and waiting for the other's, would wait
// forever. So it lets go of every token it holds and takes them back,
// with the owners, in shard order. Tokens taken in one global order
// cannot deadlock: a run waits only while holding tokens of lower shards
// than the one it waits for, and every other holder — a run, an inline
// get, a tick, a stop drain — either lets go without waiting for a token
// or is such a run itself.
//
// While it has let go, the shards whose mailboxes it drains are parked:
// no other run takes their envelopes, and no inline get, tick or stop
// drain runs on them, so what is queued behind the delete stays behind
// it and the run's counts of what it takes stay true. A parked shard's
// token is still taken by runs that only file into or commit its window,
// as a relay's or a delete's owner (takeOwners, takeItemOwners): that
// is what its own run would do with it.
func (r *run) waitFor(n *Node, owners []*dataShard) {
	for i, s := range r.shards {
		if r.queued[i] > 0 {
			s.parked = true
		}
		s.r = nil
		s.token.Unlock()
	}
	for _, s := range n.shards {
		if r.has(s) || slices.Contains(owners, s) {
			s.token.Lock()
		}
	}
	for i, s := range r.shards {
		s.r = r
		if r.queued[i] > 0 {
			s.parked = false
			s.unparked.Broadcast()
		}
	}
	for _, o := range owners {
		if !r.has(o) {
			r.take(o, 0)
		}
	}
}

// lock takes s's run token for a holder that drains or commits s
// outside a wake-up — a tick, a stop drain, a caller-driven envelope —
// once no run has s parked.
func (s *dataShard) lock() {
	s.token.Lock()
	for s.parked {
		s.unparked.Wait()
	}
}

// drain handles a run: the queued envelopes it took from each shard, in
// arrival order shard by shard — received without waiting, since the run
// holds the token and counted them there — then its end, and it lets go
// of every token.
func (n *Node) drain(ctx context.Context, r *run) {
	for i := 0; i < len(r.shards); i++ { // takeOwners may append to r.shards
		s := r.shards[i]
		for q := r.queued[i]; q > 0; q-- {
			n.handleEnv(ctx, s, <-s.mailbox)
		}
	}
	r.finish(ctx)
	r.release()
}

// runOne drains env alone on s, whose run token the caller holds, as
// s's solo run, and lets go of the token.
func (n *Node) runOne(ctx context.Context, s *dataShard, env transport.Envelope) {
	s.solo.take(s, 0)
	n.handleEnv(ctx, s, env)
	s.solo.finish(ctx)
	s.solo.release()
}

// handleEnv hands one delivered data envelope to the request handler
// on its shard.
func (n *Node) handleEnv(ctx context.Context, s *dataShard, env transport.Envelope) {
	s.met.Inc(metrics.MsgRecv)
	n.handleData(ctx, s, env.From, env.Msg.(request)) // only requests reach a shard
}

// finish ends a run. The windows of its shards that collected entry puts
// or have gets waiting land as one commit, so with W puts in flight a
// node pays about one group-commit wait per wake-up, not one per put, per
// shard or per read of a key just written. Relay copies alone do not end
// a run with a commit: they keep waiting for the tick or a later entry
// put's. The run's answers leave at its end at the latest, one frame per
// origin (see reply).
func (r *run) finish(ctx context.Context) {
	owed := r.owed[:0]
	for _, s := range r.shards {
		if len(s.entries) > 0 || len(s.gets) > 0 {
			owed = append(owed, s)
		}
	}
	if len(owed) > 0 {
		commit(ctx, owed)
	}
	clear(owed)
	r.owed = owed[:0]
	r.shards[0].flush(ctx)
}

// release lets go of every run token the run holds, the first shard's
// last: a solo run belongs to that shard, and whoever takes its token
// next may start the run again.
func (r *run) release() {
	shards := r.shards
	r.shards, r.queued = shards[:0], r.queued[:0]
	for i := len(shards) - 1; i >= 0; i-- {
		s := shards[i]
		shards[i] = nil
		s.r = nil
		s.token.Unlock()
	}
}

// tick commits s's window, in a run of its own. Between runs a window
// holds relay copies only — every run commits its entry puts and serves
// its waiting gets — and they owe no ack or relay, so the commit leaves
// nothing to flush.
func (s *dataShard) tick(ctx context.Context) {
	s.lock()
	s.solo.take(s, 0)
	s.commit(ctx)
	s.solo.release()
}

// stopShard is a shard goroutine's last step: it drains what s's
// mailbox holds, marks s stopped — no run takes it after — and commits
// its window, so no accepted write is lost between the last round and
// the store closing.
func (n *Node) stopShard(ctx context.Context, s *dataShard) {
	for {
		s.lock()
		q := min(len(s.mailbox), coalesceMax)
		if q == 0 {
			break
		}
		s.solo.take(s, q)
		n.drain(ctx, &s.solo)
	}
	s.stopped = true
	s.token.Unlock()
	s.tick(ctx)
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
// frame, whichever of its shards produced it. No answer waits for I/O:
// the queue is flushed before every store write (commit), before every
// relay send and at the end of the run. An answer that must go alone is
// sent at once — a traced request's, so /trace and span readers still
// join frames to requests by id, and a get reply over relayBatchValueMax.
func (s *dataShard) reply(ctx context.Context, to transport.NodeID, msg interface{}, alone bool) {
	if alone {
		s.sendData(ctx, to, msg)
		return
	}
	s.r.answers = append(s.r.answers, answer{to: to, msg: msg})
}

// flush sends the run's queued answers: an origin's only one as itself,
// two or more as one Replies in the order they were queued. Origins go
// in the order of their first answer. A run is at most coalesceMax
// envelopes, so scanning the queue per origin is cheaper than grouping
// it in a map.
func (s *dataShard) flush(ctx context.Context) {
	q := s.r.answers
	for i, a := range q {
		if a.msg == nil {
			continue // sent inside an earlier origin's batch
		}
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
	clear(q)
	s.r.answers = q[:0]
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

// coalescePut buffers one intra-slice relay copy for the next commit.
// A copy no store takes (store.CheckObject) never joins the window.
func (s *dataShard) coalescePut(ctx context.Context, key string, version uint64, value []byte) {
	if store.CheckObject(key, version, value) != nil {
		return
	}
	ref := objRef{key: key, version: version}
	if s.coalesceSeen == nil {
		s.coalesceSeen = make(map[objRef]struct{}, coalesceMax)
	}
	if _, dup := s.coalesceSeen[ref]; dup {
		return // same object via two request ids (client retry)
	}
	s.coalesceSeen[ref] = struct{}{}
	// Messages are immutable, so referencing the value is safe; engines
	// copy on store.
	s.coalesce = append(s.coalesce, store.Object{Key: key, Version: version, Value: value})
	if len(s.coalesce) >= coalesceMax {
		s.commit(ctx)
	}
}

// collectPut files a slice-entry put in the window; the run's commit
// (drain) stores and acks it. A put no store takes (store.CheckObject)
// is refused here, so it can neither fail the window's batch nor be
// acked or relayed.
func (s *dataShard) collectPut(from transport.NodeID, m *PutRequest) {
	if store.CheckObject(m.Key, m.Version, m.Value) != nil {
		return
	}
	s.entries = append(s.entries, entryPut{m: m, from: from})
	s.coalesce = append(s.coalesce, store.Object{Key: m.Key, Version: m.Version, Value: m.Value})
}

// holds reports whether the window has an object of key: a get of such
// a key waits for the window's commit (gets), any other get is served
// without waiting for a write. The window is at most a run plus
// coalesceMax copies long, so the scan is cheaper than a second index
// beside coalesceSeen.
func (s *dataShard) holds(key string) bool {
	for i := range s.coalesce {
		if s.coalesce[i].Key == key {
			return true
		}
	}
	return false
}

// commit is the put path's one store write for s's window alone.
func (s *dataShard) commit(ctx context.Context) {
	commit(ctx, []*dataShard{s})
}

// commit is the put path's one store write: the windows of ws — shards
// of one run, each window's relay copies and entry puts in arrival
// order — land as one store.PutBatch (one lock pass and, in the log
// engine, one appended record batch and one group-commit wait for the
// lot); a write of one object is a store.Put — the same write to the
// engine, kept apart because bench/traced times lone puts as its
// store.put layer. Every object passed store.CheckObject on its way in,
// so only the store itself can fail the batch (disk full, closed store),
// and then it fails whole: no entry put is acked, since acking a failed
// write would tell the client it is replicated when no one stored it.
// Acks leave only after the store returned. The gets that waited on the
// windows are served next, from the store, so their replies share the
// acks' frame; one whose version the store still lacks goes on to the
// mates. The intra-slice phase starts either way, since mates may still
// succeed. The answers queued so far leave first: none waits for this
// write.
func commit(ctx context.Context, ws []*dataShard) {
	s := ws[0]
	s.flush(ctx)
	batch, entries, gets := s.coalesce, s.entries, s.gets
	if len(ws) > 1 {
		batch, entries, gets = nil, nil, nil
		for _, w := range ws {
			batch = append(batch, w.coalesce...)
			entries = append(entries, w.entries...)
			gets = append(gets, w.gets...)
		}
	}
	for _, w := range ws {
		w.coalesce, w.coalesceSeen, w.entries, w.gets = nil, nil, nil, nil
	}
	if len(batch) == 0 {
		return
	}
	var err error
	if len(batch) == 1 {
		o := batch[0]
		err = s.n.st.Put(o.Key, o.Version, o.Value)
	} else {
		err = s.n.st.PutBatch(batch)
	}
	s.met.Inc(metrics.PutCommits)
	if err == nil {
		for _, e := range entries {
			m := e.m
			s.traceOp(obs.TracePutApply, m.TraceID, m.Key, len(m.Value), 1)
			s.ack(ctx, m, 0)
		}
		s.met.Add(metrics.PutsServed, uint64(len(batch)))
		s.met.Add(metrics.CoalescedPuts, uint64(len(batch)-len(entries)))
	}
	if len(gets) > 0 {
		v := s.n.routeSnap.Load()
		for _, g := range gets {
			if !s.serveGet(ctx, v, g.m) {
				s.passOn(ctx, v, g.from, g.m)
			}
		}
	}
	s.relayEntries(ctx, entries)
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
// the mate in its owner shards' windows. A lone put goes as the
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

// ShardTickDurations exposes shard i's flush-tick histogram (atomic;
// the observability plane reads it live). Nil for an out-of-range
// index.
func (n *Node) ShardTickDurations(i int) *metrics.LatencyHistogram {
	if i < 0 || i >= len(n.shards) {
		return nil
	}
	return &n.shards[i].tickDur
}

// ShardDropped sums producer-side shard mailbox drops across shards.
func (n *Node) ShardDropped() uint64 {
	var total uint64
	for _, s := range n.shards {
		total += s.drops.Load()
	}
	return total
}
