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
// Two driving modes share the handler code:
//
//   - inline (simulations, the default): HandleMessage calls the data
//     handlers synchronously with the owning shard's state. Routing
//     reads live control-plane state.
//   - external (live nodes, in-process clusters): StartShards gives
//     every shard a mailbox and a goroutine; DispatchData routes data
//     envelopes to the owning shard's mailbox with a non-blocking
//     send. Routing reads the routeView snapshot.
//
// Either way the relay decisions (relayGlobal, relayIntra) are the same
// code drawing from the shard's own RNG; the modes differ only in
// where the peer and mate lists come from.
//
// A key's requests always hash to the same shard, so per-shard dedup
// caches and coalescing windows lose nothing: two deliveries of one
// request id meet in the same cache, and a read or delete flushing its
// shard's window observes every buffered put for its key.
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
// target-slice choice in the handlers) and true; everything else —
// control protocols, mate discovery, client-bound acks — returns
// false.
func RequestKey(msg interface{}) (string, bool) {
	switch m := msg.(type) {
	case *PutRequest:
		return m.Key, true
	case *GetRequest:
		return m.Key, true
	case *DeleteRequest:
		return m.Key, true
	case *PutBatchRequest:
		if len(m.Objs) > 0 {
			return m.Objs[0].Key, true
		}
		return "", true
	case *DeleteBatchRequest:
		if len(m.Items) > 0 {
			return m.Items[0].Key, true
		}
		return "", true
	}
	return "", false
}

// routeView is the control plane's routing state as one immutable
// snapshot: slice identity, gossip budgets, the mate ids intra-slice
// relays sample from and the PSS view — each peer with the slice it
// advertises — the global phase routes by. The control loop republishes
// it (publishRoute) after every tick and handled control message; shard
// goroutines load it per operation and never mutate it — sampling
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

	// mailbox carries dispatched data envelopes in external mode (nil
	// inline). drops counts producer-side overflow.
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

	// tickDur observes shard-loop flush ticks (external mode), the
	// per-shard analogue of the node's tick histogram.
	tickDur metrics.LatencyHistogram

	// coalesce is this shard's put accumulation window (see
	// Config.CoalesceMax); coalesceSeen de-duplicates (key, version)
	// within the buffer.
	coalesce     []store.Object
	coalesceSeen map[objRef]struct{}
}

// newShards builds the per-shard states. The dedup capacity is divided
// across shards: a request id only ever reaches the shard its key
// hashes to.
func newShards(n *Node, cfg Config) []*dataShard {
	count := cfg.DataShards
	dedupCap := cfg.DedupCapacity / count
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

// handleData dispatches one data-plane envelope on shard s. The caller
// is either HandleMessage (inline mode) or the shard's own loop. The
// handlers get the sender so a relay never hands a request straight
// back to the peer it came from.
func (n *Node) handleData(ctx context.Context, s *dataShard, env transport.Envelope) {
	switch m := env.Msg.(type) {
	case *PutRequest:
		n.onPut(ctx, s, env.From, m)
	case *PutBatchRequest:
		n.onPutBatch(ctx, s, env.From, m)
	case *GetRequest:
		n.onGet(ctx, s, env.From, m)
	case *DeleteRequest:
		n.onDelete(ctx, s, env.From, m)
	case *DeleteBatchRequest:
		n.onDeleteBatch(ctx, s, env.From, m)
	}
}

// StartShards moves the data plane onto per-shard goroutines: every
// shard gets a mailbox and a loop that handles dispatched envelopes
// and flushes its coalescing window once per round period. ctx bounds
// the sends shard handlers make (acks, replies, relays); the owner
// must keep it alive until StopShards returns, or draining could not
// ack what it applies. Call at most once, before messages flow.
func (n *Node) StartShards(ctx context.Context) {
	if n.external.Load() {
		panic("core: StartShards called twice")
	}
	n.shardStop = make(chan struct{})
	for _, s := range n.shards {
		s.mailbox = make(chan transport.Envelope, shardMailboxCap)
	}
	n.publishRoute()
	n.external.Store(true)
	for _, s := range n.shards {
		n.shardWG.Add(1)
		go n.runShard(ctx, s)
	}
}

// StopShards drains and stops the shard goroutines: each shard
// consumes what its mailbox already holds, flushes its coalescing
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
// to HandleMessage instead: shards are not running externally, or the
// message is not data-plane. Safe from any goroutine (fabric handlers
// call it directly to keep data off the control loop); a full mailbox
// drops the message and counts it.
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

// runShard is one shard's goroutine: dispatched data envelopes, a
// per-round flush tick, then a final drain on stop.
func (n *Node) runShard(ctx context.Context, s *dataShard) {
	defer n.shardWG.Done()
	ticker := time.NewTicker(n.cfg.RoundPeriod)
	defer ticker.Stop()
	for {
		select {
		case env := <-s.mailbox:
			s.met.Inc(metrics.MsgRecv)
			n.handleData(ctx, s, env)
		case <-ticker.C:
			t0 := time.Now()
			s.flush()
			s.tickDur.Observe(time.Since(t0))
		case <-n.shardStop:
			n.drainShard(ctx, s)
			return
		}
	}
}

// drainShard consumes everything the mailbox holds at stop time and
// flushes the coalescing window, so no accepted write is lost between
// the last round and the store closing.
func (n *Node) drainShard(ctx context.Context, s *dataShard) {
	for {
		select {
		case env := <-s.mailbox:
			s.met.Inc(metrics.MsgRecv)
			n.handleData(ctx, s, env)
		default:
			s.flush()
			return
		}
	}
}

// publishRoute snapshots the control plane's routing state for shard
// goroutines. Only meaningful in external mode; the control loop calls
// it after ticks and control messages (cheap enough there — control
// traffic is a few messages per round).
func (n *Node) publishRoute() {
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

// sliceInfo returns the slice claim and slice count the data path must
// route by: the published snapshot when shards run externally, the
// live slicer inline.
func (s *dataShard) sliceInfo() (int32, int) {
	if v := s.n.routeSnap.Load(); v != nil {
		return v.slice, v.sliceCount
	}
	return s.n.currentSlice(), s.n.slicer.SliceCount()
}

func (s *dataShard) putTTL() uint8 {
	if v := s.n.routeSnap.Load(); v != nil {
		return v.putTTL
	}
	return s.n.putTTL()
}

func (s *dataShard) getTTL() uint8 {
	if v := s.n.routeSnap.Load(); v != nil {
		return v.getTTL
	}
	return s.n.getTTL()
}

func (s *dataShard) intraTTL() uint8 {
	if v := s.n.routeSnap.Load(); v != nil {
		return v.intraTTL
	}
	return s.n.intraTTL()
}

// globalRoute returns what the global phase routes by — the PSS view
// with every peer's advertised slice, and the epidemic fanout — from
// the published snapshot when shards run externally, from the live
// protocol inline.
func (s *dataShard) globalRoute() ([]pss.Descriptor, int) {
	if v := s.n.routeSnap.Load(); v != nil {
		return v.peers, v.fanout
	}
	return s.n.pssP.View(), s.n.fanout()
}

// mates returns the intra-slice view's member ids, snapshot or live
// like globalRoute.
func (s *dataShard) mates() []transport.NodeID {
	if v := s.n.routeSnap.Load(); v != nil {
		return v.mates
	}
	return s.n.intra.IDs()
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

// relayGlobal forwards a request in its global phase. ttl is the
// request's own: TTLUnset on the first hop from a client, which stamps
// budget() — clients know neither the system size nor the slice count.
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
// With no hinted peer, every hinted send failing, or flood set (the
// request is on the dependable path already), the request goes to
// fanout random peers as the paper has it. build constructs the
// forwarded copy given the decremented TTL and its Flood flag; one copy
// is shared across peers because receivers never mutate messages.
func (s *dataShard) relayGlobal(ctx context.Context, from transport.NodeID, target int32, flood bool, ttl uint8,
	budget func() uint8, build func(ttl uint8, flood bool) interface{}) {
	first := ttl == TTLUnset
	if first {
		ttl = budget()
	}
	if ttl == 0 {
		return
	}
	peers, fanout := s.globalRoute()
	if len(peers) == 0 {
		return
	}
	s.met.Inc(metrics.RequestsRelayed)
	var hinted []int
	if !flood {
		hinted = s.hinted(peers, target, from)
	}
	if len(hinted) > 0 {
		fwd := build(ttl-1, !first)
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
	fwd := build(ttl-1, flood)
	for _, i := range s.sample(len(peers), fanout) {
		s.sendData(ctx, peers[i].ID, fwd)
	}
}

// relayIntra forwards a request to a sample of the intra-slice view,
// never back to from: the peer the copy came from already holds it, so
// the echo could only be suppressed on arrival (in a two-node slice it
// was one certain duplicate per put). Further back than one hop the
// request does not say where it has been; the dedup cache covers that.
func (s *dataShard) relayIntra(ctx context.Context, from transport.NodeID, fwd interface{}) {
	mates := s.mates()
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
	picks := s.sample(n, s.n.cfg.IntraFanout)
	if len(picks) == 0 {
		return
	}
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
		s.countSendErr(err)
		return false
	}
	return true
}

// countSendErr mirrors Node.countSendErr with the shard's counters.
// Config.OnSendErr must be safe for concurrent use when shards run
// externally.
func (s *dataShard) countSendErr(err error) {
	s.met.Inc(metrics.WireSendErrors)
	if s.n.cfg.OnSendErr != nil {
		s.n.cfg.OnSendErr(err)
	}
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

// coalescePut buffers one intra-slice relay put for the next batched
// flush; with coalescing disabled it stores directly.
func (s *dataShard) coalescePut(key string, version uint64, value []byte) {
	if s.n.cfg.CoalesceMax <= 0 {
		if s.n.st.Put(key, version, value) == nil {
			s.met.Inc(metrics.PutsServed)
		}
		return
	}
	ref := objRef{key: key, version: version}
	if s.coalesceSeen == nil {
		s.coalesceSeen = make(map[objRef]struct{}, s.n.cfg.CoalesceMax)
	}
	if _, dup := s.coalesceSeen[ref]; dup {
		return // same object via two request ids (client retry)
	}
	s.coalesceSeen[ref] = struct{}{}
	// Messages are immutable, so referencing the value is safe; engines
	// copy on store.
	s.coalesce = append(s.coalesce, store.Object{Key: key, Version: version, Value: value})
	if len(s.coalesce) >= s.n.cfg.CoalesceMax {
		s.flush()
	}
}

// flush applies the accumulation window as one store.PutBatch. A
// batch-level failure (one invalid object fails the whole batch with
// no side effects) degrades to individual puts so valid objects are
// not lost to a poisoned batch.
func (s *dataShard) flush() {
	if len(s.coalesce) == 0 {
		return
	}
	batch := s.coalesce
	s.coalesce = nil
	s.coalesceSeen = nil
	if err := s.n.st.PutBatch(batch); err != nil {
		for _, o := range batch {
			if s.n.st.Put(o.Key, o.Version, o.Value) == nil {
				s.met.Inc(metrics.PutsServed)
			}
		}
		return
	}
	s.met.Add(metrics.PutsServed, uint64(len(batch)))
	s.met.Add(metrics.CoalescedPuts, uint64(len(batch)))
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
	s := n.shards[i]
	if s.mailbox == nil {
		return 0
	}
	return len(s.mailbox)
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
