// Data-plane sharding: the node's put/get/delete path partitioned by
// key hash into independent shard states.
//
// A dataShard owns everything the data handlers mutate — the dedup
// cache, the coalescing window, the relay RNG and the counters — so a
// shard can run on its own goroutine without touching another shard's
// state. The epidemic control plane (PSS, slicing, aggregation,
// anti-entropy, bootstrap) stays on the node's single-threaded loop;
// shards see its routing decisions through an immutable routeView
// snapshot the control loop republishes after every tick and control
// message. The shared store is the only mutable structure shards touch
// concurrently, and store.Store is safe for concurrent use by
// contract.
//
// One runtime, whoever drives it: a data envelope is handled inside
// drain, on its key's shard, and routes by the snapshot alone. On a
// running node (StartShards: live nodes, in-process clusters)
// DispatchData queues it on the shard's mailbox and the shard's
// goroutine drains what is queued, one run at a time. On a caller-driven
// node (simulations, bench/traced, tests) HandleMessage is that
// goroutine: it brings the snapshot up to date and drains a run of one.
//
// A key's requests always hash to the same shard, so per-shard dedup
// caches and coalescing windows lose nothing: two deliveries of one
// request id meet in the same cache, and a read or delete of a key
// observes every buffered put for it in its own shard's window.
package core

import (
	"context"
	"math/rand/v2"
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
// Deletes, client batches and reads of a buffered key commit the buffer
// first, so a node still observes its own writes. It also bounds the run
// a shard handles per wake-up.
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

	// mailbox carries dispatched data envelopes once StartShards ran (nil
	// on a caller-driven node). drops counts producer-side overflow.
	mailbox chan transport.Envelope
	drops   metrics.SharedCounter

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
	// phase, at the end of the run.
	coalesce     []store.Object
	coalesceSeen map[objRef]struct{}
	entries      []entryPut

	// answers are the acks and get replies the run in progress produced,
	// in that order, until the next flush sends them (see reply).
	answers []answer
}

// entryPut is a collected slice-entry put: the request and the peer it
// came from.
type entryPut struct {
	m    *PutRequest
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
		shards[i] = &dataShard{
			n:     n,
			id:    i,
			dedup: gossip.NewDedup(dedupCap),
			rng:   sim.RNG(cfg.Seed, uint64(n.id)*1000003+uint64(i)^shardRNGSalt),
		}
	}
	return shards
}

// shardFor returns the shard owning key.
func (n *Node) shardFor(key string) *dataShard {
	return n.shards[shardIndex(key, len(n.shards))]
}

// StartShards moves the data plane onto per-shard goroutines: every
// shard gets a mailbox and a loop that handles dispatched envelopes
// and commits its coalescing window once per round period. ctx bounds
// the sends shard handlers make (acks, replies, relays); the owner
// must keep it alive until StopShards returns, or the final drain could
// not ack what it applies. Call at most once, before messages flow.
func (n *Node) StartShards(ctx context.Context) {
	if n.external.Load() {
		panic("core: StartShards called twice")
	}
	n.shardStop = make(chan struct{})
	for _, s := range n.shards {
		s.mailbox = make(chan transport.Envelope, shardMailboxCap)
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

// StopShards drains and stops the shard goroutines: each shard
// consumes what its mailbox already holds, commits its coalescing
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

// DispatchData routes a data-plane envelope to its owning shard's
// mailbox. It reports false when the caller must deliver the envelope
// to HandleMessage instead: the node is caller-driven, or the message is
// not data-plane. Safe from any goroutine: fabric handlers
// call it first and fall back to the control loop's mailbox when it
// declines, so a get or a put never waits behind a Tick. A full shard
// mailbox drops the message and counts it.
func (n *Node) DispatchData(env transport.Envelope) bool {
	if !n.external.Load() {
		return false
	}
	key, ok := RequestKey(env.Msg)
	if !ok {
		return false
	}
	s := n.shardFor(key)
	select {
	case s.mailbox <- env:
	default:
		s.drops.Inc()
	}
	return true
}

// runShard is one shard's goroutine: runs of dispatched data envelopes,
// a per-round commit of the window, then a final drain on stop.
func (n *Node) runShard(ctx context.Context, s *dataShard) {
	defer n.shardWG.Done()
	ticker := time.NewTicker(n.cfg.RoundPeriod)
	defer ticker.Stop()
	for {
		select {
		case env := <-s.mailbox:
			n.drain(ctx, s, env)
		case <-ticker.C:
			t0 := time.Now()
			s.commit(ctx)
			s.tickDur.Observe(time.Since(t0))
		case <-n.shardStop:
			n.drainShard(ctx, s)
			return
		}
	}
}

// drain handles one run: the envelope that woke the shard plus what is
// queued behind it right now — the shard is its mailbox's only consumer,
// so that much is received without waiting — in arrival order, at most
// coalesceMax envelopes so the tick and the stop signal get their turn.
// The run's slice-entry puts share one commit, so with W puts in flight
// a shard pays about one group-commit wait per wake-up, not one per put.
// Relay copies alone do not end a run with a commit: they keep waiting
// for the tick or a later entry put's. The run's answers leave at its end
// at the latest, one frame per origin (see reply). A caller-driven node
// has no mailbox: its runs are one envelope long.
func (n *Node) drain(ctx context.Context, s *dataShard, env transport.Envelope) {
	for more := min(len(s.mailbox), coalesceMax-1); ; more-- {
		s.met.Inc(metrics.MsgRecv)
		n.handleData(ctx, s, env.From, env.Msg.(request)) // only requests are dispatched here
		if more == 0 {
			break
		}
		env = <-s.mailbox
	}
	if len(s.entries) > 0 {
		s.commit(ctx)
	}
	s.flush(ctx)
}

// drainShard consumes everything the mailbox holds at stop time and
// commits the window, so no accepted write is lost between the last
// round and the store closing.
func (n *Node) drainShard(ctx context.Context, s *dataShard) {
	for {
		select {
		case env := <-s.mailbox:
			n.drain(ctx, s, env)
		default:
			s.commit(ctx)
			return
		}
	}
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

// reply answers a client: it queues an ack or a get reply for the shard's
// next flush, which sends what a run produced for one origin as one
// frame. No answer waits for I/O: the queue is flushed before every store
// write (commit), before every relay send and at the end of the run. An
// answer that must go alone is sent at once — a traced request's, so
// /trace and span readers still join frames to requests by id, and a get
// reply over relayBatchValueMax.
func (s *dataShard) reply(ctx context.Context, to transport.NodeID, msg interface{}, alone bool) {
	if alone {
		s.sendData(ctx, to, msg)
		return
	}
	s.answers = append(s.answers, answer{to: to, msg: msg})
}

// flush sends the queued answers: an origin's only one as itself, two or
// more as one Replies in the order they were queued. Origins go in the
// order of their first answer. A run is at most coalesceMax envelopes,
// so scanning the queue per origin is cheaper than grouping it in a map.
func (s *dataShard) flush(ctx context.Context) {
	q := s.answers
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
	s.answers = q[:0]
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
	case *DeleteRequest:
		kind = obs.TraceDeleteRelay
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
// a key commits first, any other get is served without waiting for a
// write. The window is at most a run plus coalesceMax copies long, so
// the scan is cheaper than a second index beside coalesceSeen.
func (s *dataShard) holds(key string) bool {
	for i := range s.coalesce {
		if s.coalesce[i].Key == key {
			return true
		}
	}
	return false
}

// commit is the put path's one store write: the window — relay copies
// and the run's entry puts, in arrival order — lands as one
// store.PutBatch (one lock pass and, in the log engine, one appended
// record batch and one group-commit wait for the lot); a window of one
// object is a store.Put — the same write to the engine, kept apart
// because bench/traced times lone puts as its store.put layer. Every
// object passed store.CheckObject on its way in, so only the store
// itself can fail the batch (disk full, closed store), and then it fails
// whole: no entry put is acked, since acking a failed write would tell
// the client it is replicated when no one stored it. Acks leave only
// after the store returned. The intra-slice phase starts either way,
// since mates may still succeed. The answers queued so far leave first:
// none waits for this write.
func (s *dataShard) commit(ctx context.Context) {
	s.flush(ctx)
	if len(s.coalesce) == 0 {
		return
	}
	batch, entries := s.coalesce, s.entries
	s.coalesce, s.coalesceSeen, s.entries = nil, nil, nil
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
// this node mints (and marks seen, so an echo is suppressed): one frame
// and one relay decision for all of them, filed by the mate in its own
// window. A lone put goes as the PutRequest{Intra} copy it always was.
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
		s.dedup.Seen(fwd.ID)
		// No mate handed us the batch: sparing ourselves spares nobody.
		s.relayIntra(ctx, v, s.n.id, fwd)
	}
}

// ownsAll reports whether a get of any of objs looks in this shard's
// window: true for what one shard of a mate with our shard count
// batched, not for every batch of a mate sharded differently.
func (s *dataShard) ownsAll(objs []store.Object) bool {
	for i := range objs {
		if shardIndex(objs[i].Key, len(s.n.shards)) != s.id {
			return false
		}
	}
	return true
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
