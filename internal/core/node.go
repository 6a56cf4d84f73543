package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"dataflasks/internal/aggregate"
	"dataflasks/internal/antientropy"
	"dataflasks/internal/bootstrap"
	"dataflasks/internal/gossip"
	"dataflasks/internal/metrics"
	"dataflasks/internal/obs"
	"dataflasks/internal/pss"
	"dataflasks/internal/sim"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// TTLUnset marks a request whose TTL the first DataFlasks node must
// stamp; clients do not know the system size or slice count.
const TTLUnset uint8 = 255

// Node is one DataFlasks host (paper Figure 2): the request Handler
// wired to the Slice Manager (a slicing protocol), the Node Sampling
// service (a PSS) and the Data Store. It is event-driven and
// single-threaded: a discrete-event simulation delivers messages via
// HandleMessage and clock ticks via Tick; a live deployment calls Start,
// and the node's own loop does (live.go).
type Node struct {
	id  transport.NodeID
	cfg Config

	raw    transport.Sender
	pssP   *pss.Cyclon
	slicer slicing.Slicer
	st     store.Store
	intra  *intraView
	ae     *antientropy.Protocol
	boot   *bootstrap.Protocol // nil when DisableBootstrap
	size   *aggregate.Extrema  // nil when SystemSize is configured

	met   *metrics.NodeMetrics
	rng   *rand.Rand
	round uint64
	attr  float64

	// trace is Config.Trace (nil: tracing off-path). tickDur is the
	// per-tick duration histogram the observability plane exports; it
	// is atomic, so the plane reads it live while the loop observes.
	trace   *obs.Ring
	tickDur metrics.LatencyHistogram
	// aeDigest is the digest-bytes counter as the previous traced repair
	// round read it.
	aeDigest uint64

	lastSlice int32

	// shards hold the data plane's per-partition state — dedup cache,
	// relay RNG, counters (see shard.go) — and win the put window every
	// shard's runs file relay copies in (relayWindow). external flips
	// true while StartShards-launched goroutines drive the shards, false
	// while the caller of HandleMessage does; they wait on wake, and
	// running counts the wake-up runs in progress, continuing ones
	// included (wakeRun). routeSnap is
	// the control plane's routing state as the data handlers see it,
	// never nil; routeStale marks it out of date on a caller-driven node
	// (see routeChanged).
	shards     []*dataShard
	win        relayWindow
	external   atomic.Bool
	wake       chan struct{}
	running    atomic.Int32
	shardStop  chan struct{}
	shardCtx   context.Context // StartShards' ctx: bounds an inline get's sends
	shardWG    sync.WaitGroup
	routeSnap  atomic.Pointer[routeView]
	routeStale bool
	relaySeq   atomic.Uint32 // numbers the batched relays this node mints (relayEntries)

	// The live half (live.go), unset on a caller-driven node: the control
	// mailbox Deliver pushes into and Start's loop drains, drops counting
	// its overflow, status what the loop last published, stop what Stop
	// runs.
	mailbox chan transport.Envelope
	drops   metrics.SharedCounter
	status  atomic.Pointer[obs.Status]
	stop    func()
}

// NewNode assembles a DataFlasks node. The store is owned by the caller
// (it survives node restarts); the sender is the node's link to the
// fabric.
func NewNode(id transport.NodeID, cfg Config, st store.Store, out transport.Sender) *Node {
	cfg = cfg.withDefaults()
	if st == nil {
		panic("core: NewNode requires a store")
	}
	if out == nil {
		panic("core: NewNode requires a sender")
	}
	n := &Node{
		id:        id,
		cfg:       cfg,
		raw:       out,
		st:        st,
		met:       &metrics.NodeMetrics{},
		rng:       sim.RNG(cfg.Seed, uint64(id)),
		trace:     cfg.Trace,
		lastSlice: slicing.SliceUnknown,
	}
	n.shards = newShards(n, cfg)
	n.intra = newIntraView(intraViewTarget*2, intraStaleRounds)

	attr := cfg.Capacity
	if attr == 0 {
		// Synthesize a stable pseudo-capacity so heterogeneity exists
		// even when the deployer does not measure one.
		attr = sim.RNG(cfg.Seed, uint64(id)^0xcafe).Float64()
	}
	n.attr = attr

	selfInfo := func() (float64, int32) { return attr, n.currentSlice() }
	n.pssP = pss.NewCyclon(id, pss.CyclonConfig{ViewSize: viewSize, SelfAddr: cfg.AdvertiseAddr},
		n.sender(metrics.PSSSent), n.rng, selfInfo)
	n.pssP.SetObserver(n.observeDescriptor)

	partner := func() (transport.NodeID, bool) {
		peers := n.pssP.RandomPeers(1)
		if len(peers) == 0 {
			return 0, false
		}
		return peers[0], true
	}
	switch cfg.Slicer {
	case SlicerSwap:
		n.slicer = slicing.NewSwapSlicer(id, attr,
			slicing.SwapSlicerConfig{Slices: cfg.Slices},
			n.sender(metrics.SliceSent), partner, n.rng)
	case SlicerStatic:
		n.slicer = slicing.NewStaticSlicer(id, cfg.Slices)
	default:
		n.slicer = slicing.NewRankSlicer(id, attr, slicing.RankSlicerConfig{Slices: cfg.Slices})
	}

	if cfg.SystemSize <= 0 {
		n.size = aggregate.NewExtrema(aggregate.ExtremaConfig{},
			n.sender(metrics.AggregateSent), partner, n.rng)
	}

	// Repair and bootstrap run on cadences of their own and draw from
	// streams of their own, so the gossip protocols' draws do not depend
	// on how often they run or what they find.
	if cfg.AntiEntropyEvery > 0 {
		aeRNG := sim.RNG(cfg.Seed, uint64(id)^0xae)
		n.ae = antientropy.New(
			antientropy.Config{
				MaxPushBytes:      cfg.AntiEntropyMaxPushBytes,
				RateBytesPerRound: cfg.AntiEntropyRateBytes,
				EvictForeign:      cfg.EvictForeign,
				WholeStore:        cfg.AntiEntropyWholeStore,
			},
			antientropy.Env{
				Store:   st,
				Send:    n.sender(metrics.AntiEntropySent),
				Partner: func() (transport.NodeID, bool) { return n.intra.Random(aeRNG) },
				Slice:   n.currentSlice,
				Slices:  n.slicer.SliceCount,
				OnCompared: func(differing int) {
					if differing == 0 {
						n.met.Inc(metrics.AntiEntropyCleanRounds)
					}
					n.met.Add(metrics.AntiEntropyDifferingRanges, uint64(differing))
				},
				OnPush: func(objs, bytes int) {
					n.met.Add(metrics.AntiEntropyPushedObjects, uint64(objs))
					n.met.Add(metrics.AntiEntropyPushBytes, uint64(bytes))
				},
				OnCorrupt: func(c int) { n.met.Add(metrics.AntiEntropyCorruptSkipped, uint64(c)) },
			},
			aeRNG,
		)
	}

	if !cfg.DisableBootstrap {
		// Every node serves segments; only a node configured to join
		// drives the fetch state machine. The bootstrap partner is a
		// slice-mate: the intra view is the only peer set whose stores
		// hold our slice's data.
		bootRNG := sim.RNG(cfg.Seed, uint64(id)^0xb007)
		n.boot = bootstrap.New(
			bootstrap.Config{
				Join:              cfg.Bootstrap,
				RateBytesPerRound: cfg.BootstrapRateBytes,
			},
			bootstrap.Env{
				Store:      st,
				Send:       n.sender(metrics.BootstrapSent),
				Partner:    func() (transport.NodeID, bool) { return n.intra.Random(bootRNG) },
				Slice:      n.currentSlice,
				KeyInSlice: n.keyInMySlice,
				OnFetch: func(segment uint64, offset int64) {
					if n.trace != nil {
						n.trace.Add(obs.Event{Kind: obs.TraceBootFetch, Seg: segment, Bytes: uint64(offset)})
					}
				},
				OnSegment: func() {
					n.met.Inc(metrics.BootstrapSegments)
					if n.trace != nil {
						n.trace.Add(obs.Event{Kind: obs.TraceBootSegment})
					}
				},
				OnBytes:         func(b int) { n.met.Add(metrics.BootstrapBytes, uint64(b)) },
				OnChunkRejected: func() { n.met.Inc(metrics.BootstrapChunksRejected) },
			},
			bootRNG,
		)
	}
	n.publishRoute()
	return n
}

// send is every control-plane send: msg goes to the fabric, counted
// under cat, and a failure is counted once, as a drop. No protocol
// retries a failed send itself — the next round does — so counting it
// here is all the handling it gets.
func (n *Node) send(ctx context.Context, cat metrics.Counter, to transport.NodeID, msg interface{}) error {
	n.met.Inc(metrics.MsgSent)
	n.met.Inc(cat)
	err := n.raw.Send(ctx, to, msg)
	if err != nil {
		n.met.Inc(metrics.MsgDropped)
	}
	return err
}

// sender is send under cat as a protocol's transport.Sender.
func (n *Node) sender(cat metrics.Counter) transport.Sender {
	return transport.SenderFunc(func(ctx context.Context, to transport.NodeID, msg interface{}) error {
		return n.send(ctx, cat, to, msg)
	})
}

// ID returns the node's identifier.
func (n *Node) ID() transport.NodeID { return n.id }

// Metrics returns a merged copy of the node's counters: the control
// loop's own plus every data shard's. Harnesses read it after runs;
// Status serves the same merge to other goroutines, the control loop's
// part as last published and the shards' live. The copy is detached —
// to zero the node's counters use ResetMetrics. The StoredObjects gauge
// is the store's count as of the read.
func (n *Node) Metrics() *metrics.NodeMetrics {
	out := &metrics.NodeMetrics{}
	*out = *n.met
	for _, s := range n.shards {
		s.met.AddTo(out)
	}
	out.Set(metrics.StoredObjects, uint64(n.st.Count()))
	return out
}

// ResetMetrics zeroes the control loop's and every shard's counters
// (harnesses reset between quiesced experiment phases).
func (n *Node) ResetMetrics() {
	n.met.Reset()
	n.aeDigest = 0
	for _, s := range n.shards {
		s.met.Reset()
	}
}

// TickDurations exposes the per-tick duration histogram. Unlike the
// plain counters it is atomic, so the observability plane reads it
// concurrently with the event loop.
func (n *Node) TickDurations() *metrics.LatencyHistogram { return &n.tickDur }

// Store exposes the node's local store.
func (n *Node) Store() store.Store { return n.st }

// Slice returns the node's current slice claim, as the routing snapshot
// has it. On a running node any goroutine may ask; on a caller-driven
// one only the caller's, and the answer is up to date with every message
// and tick handled so far.
func (n *Node) Slice() int32 {
	if !n.external.Load() {
		n.freshRoute()
	}
	return n.routeSnap.Load().slice
}

// Attr returns the node's slicing attribute (its capacity).
func (n *Node) Attr() float64 { return n.attr }

// SliceCount returns the node's current slice count k.
func (n *Node) SliceCount() int { return n.slicer.SliceCount() }

// SetSliceCount reconfigures k (replication management, §IV-C).
func (n *Node) SetSliceCount(k int) {
	n.slicer.SetSliceCount(k)
	n.routeChanged()
}

// IntraViewSize returns the current intra-slice view size.
func (n *Node) IntraViewSize() int { return n.intra.Len() }

// PSSView returns a copy of the peer-sampling view.
func (n *Node) PSSView() []pss.Descriptor { return n.pssP.View() }

// Round returns how many ticks the node has run.
func (n *Node) Round() uint64 { return n.round }

// HasSeen reports whether the node processed a request with this id
// (observability hook for dissemination experiments). It reads the
// per-shard dedup caches without synchronization, so it is only valid
// on a caller-driven node (simulations) or a quiesced one.
func (n *Node) HasSeen(id gossip.RequestID) bool {
	for _, s := range n.shards {
		if s.dedup.Contains(id) {
			return true
		}
	}
	return false
}

// SystemSizeEstimate returns the node's working estimate of N.
func (n *Node) SystemSizeEstimate() int { return n.systemSize() }

// Bootstrap seeds the PSS view with initial contacts.
func (n *Node) Bootstrap(seeds []transport.NodeID) {
	n.pssP.Bootstrap(seeds)
	n.routeChanged()
}

// BootstrapDone reports whether the startup segment bootstrap finished
// (trivially true when the node was not configured to join, or the
// protocol is disabled).
func (n *Node) BootstrapDone() bool { return n.boot == nil || n.boot.Done() }

// BootstrapFellBack reports whether the segment bootstrap gave up and
// left convergence to object-wise anti-entropy repair.
func (n *Node) BootstrapFellBack() bool { return n.boot != nil && n.boot.FellBack() }

func (n *Node) currentSlice() int32 {
	if n.slicer == nil {
		return slicing.SliceUnknown
	}
	return n.slicer.Slice()
}

func (n *Node) keyInMySlice(key string) bool {
	mine := n.currentSlice()
	return mine != slicing.SliceUnknown && slicing.KeySlice(key, n.slicer.SliceCount()) == mine
}

// observeDescriptor consumes the PSS uniform sample stream: it feeds
// the rank slicer, the fabric's address directory and keeps the
// intra-slice view warm.
func (n *Node) observeDescriptor(d pss.Descriptor) {
	if n.cfg.AddressBook != nil && d.Addr != "" {
		n.cfg.AddressBook.Learn(d.ID, d.Addr)
	}
	n.slicer.Observe(d.ID, d.Attr)
	mine := n.currentSlice()
	if mine == slicing.SliceUnknown || d.Slice == pss.SliceUnknown {
		return
	}
	if d.Slice == mine {
		n.intra.Touch(d, n.round)
	} else {
		// The node advertises another slice now; drop a stale mate entry.
		n.intra.Remove(d.ID)
	}
}

// systemSize returns the configured or estimated N (at least 2).
func (n *Node) systemSize() int {
	if n.cfg.SystemSize > 0 {
		return n.cfg.SystemSize
	}
	if n.size != nil {
		est, _ := n.size.Estimate()
		if est >= 2 {
			return int(est)
		}
	}
	return 2
}

func (n *Node) fanout() int {
	return gossip.Fanout(n.systemSize(), n.cfg.FanoutC)
}

// putTTL covers the whole system: writes must reach every replica of
// the target slice synchronously (unless BoundedPutFlood).
func (n *Node) putTTL() uint8 {
	if n.cfg.BoundedPutFlood {
		return n.getTTL()
	}
	return gossip.TTL(n.systemSize(), n.fanout(), 2)
}

// getCoverageC sizes the bounded global phase of a read (§IV-B: "it is
// sufficient to reach only the percentage of system nodes that
// guarantees that some nodes of the target slice are reached"): the
// flood covers ~getCoverageC·k random nodes, for slice-miss probability
// e^(-getCoverageC).
const getCoverageC = 3.0

// getTTL covers ~getCoverageC·k random nodes — just enough that some
// target-slice node is reached w.h.p. (§IV-B).
func (n *Node) getTTL() uint8 {
	k := n.slicer.SliceCount()
	target := int(math.Ceil(getCoverageC * float64(k)))
	size := n.systemSize()
	if target > size {
		target = size
	}
	return gossip.TTL(target, n.fanout(), 1)
}

// viewSize bounds the PSS partial view (paper §II: ln(N)+c entries
// suffice for epidemic dissemination; 20 is the customary value).
const viewSize = 20

// intraFanout is the relay fanout within a slice.
const intraFanout = 8

// intraTTL bounds the intra-slice flood by the expected slice size.
func (n *Node) intraTTL() uint8 {
	sliceSize := n.systemSize() / n.slicer.SliceCount()
	if sliceSize < 2 {
		sliceSize = 2
	}
	return gossip.TTL(sliceSize, intraFanout, 2)
}

// Tick runs one gossip round: the put window's commit, peer sampling,
// slicing, slice-change bookkeeping, view expiry, mate discovery,
// periodic anti-entropy and the size estimator. ctx bounds every send
// the round makes; it is the owner's lifecycle context, so an
// in-flight round stops dialing the moment the node shuts down.
func (n *Node) Tick(ctx context.Context) {
	tickStart := time.Now()
	n.round++
	// The round's commit, on a running node and a caller-driven one
	// alike: the relay copies waiting in the window land as one store
	// write. They owe no ack or relay, so it sends nothing, and a failed
	// write loses only copies repair brings back; a get that waits for
	// one is served by its run's commit, after this write.
	_ = n.win.commit(n.st, &n.shards[0].met, nil)
	if n.trace != nil {
		t0 := time.Now()
		n.pssP.Tick(ctx)
		n.trace.Add(obs.Event{Kind: obs.TraceShuffle, Dur: time.Since(t0)})
	} else {
		n.pssP.Tick(ctx)
	}
	n.slicer.Tick(ctx)

	if cur := n.currentSlice(); cur != n.lastSlice {
		// Slice changed: the old mates are no longer ours.
		if n.lastSlice != slicing.SliceUnknown {
			n.met.Inc(metrics.SliceChanges)
		}
		n.met.Set(metrics.SliceRounds, 0)
		n.intra.Clear()
		n.lastSlice = cur
	} else if cur != slicing.SliceUnknown {
		n.met.Inc(metrics.SliceRounds)
	}
	n.intra.Expire(n.round)
	n.discoverMates(ctx)

	if n.size != nil {
		n.size.Tick(ctx)
	}
	if n.ae != nil && n.cfg.AntiEntropyEvery > 0 && n.round%uint64(n.cfg.AntiEntropyEvery) == 0 {
		if n.trace != nil {
			// Journal the round's repair cost as counter deltas: the
			// digest bytes received since the previous repair round and
			// the objects pushed from this round's exchange start (good
			// enough to see a repair storm in /trace).
			dig := n.met.Get(metrics.AntiEntropyDigestBytes)
			obj0 := n.met.Get(metrics.AntiEntropyPushedObjects)
			t0 := time.Now()
			n.ae.Tick(ctx)
			n.trace.Add(obs.Event{Kind: obs.TraceAERound,
				Bytes:   dig - n.aeDigest,
				Objects: n.met.Get(metrics.AntiEntropyPushedObjects) - obj0,
				Dur:     time.Since(t0)})
			n.aeDigest = dig
		} else {
			n.ae.Tick(ctx)
		}
	}
	if n.boot != nil {
		n.boot.Tick(ctx)
	}
	n.routeChanged()
	n.tickDur.Observe(time.Since(tickStart))
}

// discoverMates tops up the intra-slice view by querying random peers
// for members of our slice. When slices are scarce (large k) the
// passive PSS stream rarely delivers mates and this active path carries
// the load — the cost regime behind the paper's Figure 4.
func (n *Node) discoverMates(ctx context.Context) {
	mine := n.currentSlice()
	if mine == slicing.SliceUnknown {
		return
	}
	deficit := intraViewTarget - n.intra.Len()
	if deficit <= 0 {
		return
	}
	queries := deficit
	if queries > n.cfg.DiscoveryMaxQueries {
		queries = n.cfg.DiscoveryMaxQueries
	}
	for _, peer := range n.pssP.RandomPeers(queries) {
		_ = n.send(ctx, metrics.DiscoverySent, peer, &MateQuery{Slice: mine})
	}
}

// HandleMessage dispatches one delivered message. It must only be
// called from the node's driving loop. ctx bounds any sends the
// handlers make (acks, replies, relays). A data-plane message goes to
// its shard: onto the mailbox of a running one, or — nobody else drives
// the shards — through a run of one right here, over the snapshot
// brought up to date. Everything else is the control plane's, handled
// here, and may have moved the routing state.
func (n *Node) HandleMessage(ctx context.Context, env transport.Envelope) {
	if n.DispatchData(env) {
		return // a shard goroutine owns it; counted on delivery there
	}
	if key, ok := RequestKey(env.Msg); ok {
		n.freshRoute()
		s := n.shardFor(key)
		s.token.Lock()
		n.runOne(ctx, s, env)
		return
	}
	defer n.routeChanged()
	n.met.Inc(metrics.MsgRecv)
	if n.pssP.Handle(ctx, env.From, env.Msg) {
		return
	}
	if n.slicer.Handle(ctx, env.From, env.Msg) {
		return
	}
	if n.size != nil && n.size.Handle(ctx, env.From, env.Msg) {
		return
	}
	if n.boot != nil {
		if m, ok := env.Msg.(*antientropy.Push); ok && n.boot.FellBack() {
			// After a failed segment bootstrap, repair pushes ARE the
			// recovery path; count what rides it so the fallback is
			// visible in metrics (bootstrap_fallback_objects).
			n.met.Add(metrics.BootstrapFallbackObjects, uint64(len(m.Objects)))
		}
		if n.boot.Handle(ctx, env.From, env.Msg) {
			return
		}
	}
	switch env.Msg.(type) {
	case *antientropy.Reconcile, *antientropy.Pull:
		// What finding out what to repair costs: the encoded frames of
		// the exchange, charged where they arrive.
		n.met.Add(metrics.AntiEntropyDigestBytes, uint64(env.Bytes))
	}
	if n.ae != nil && n.ae.Handle(ctx, env.From, env.Msg) {
		return
	}
	switch m := env.Msg.(type) {
	case *MateQuery:
		n.onMateQuery(ctx, env.From, m)
	case *MateReply:
		n.onMateReply(m)
	default:
		// Ignored: client-bound traffic that reached a node (a stale
		// origin), or a kind a newer version of a mixed deployment speaks.
	}
}

// handleData is the paper's one request handler (§IV-B) for every
// data-plane kind: suppress a duplicate, carry a request for another
// slice through the TTL-bounded global phase, apply one for this slice
// and pass it on to the mates. Messages are immutable (a node's own
// clients receive the pointer it sent): relays work on copies. from
// is the sender, which no relay hands the request straight back to.
func (n *Node) handleData(ctx context.Context, s *dataShard, from transport.NodeID, req request) {
	r := req.routing()
	if s.dedup.Seen(r.ID) {
		s.met.Inc(metrics.DuplicatesSuppressed)
		return
	}
	key, ok := req.routeKey()
	if !ok {
		return
	}
	_, read := req.(*GetRequest)
	v := n.routeSnap.Load()

	if target := slicing.KeySlice(key, v.sliceCount); v.slice != target {
		if r.Intra {
			// A stale intra-view pointed at us after we changed slice; the
			// epidemic redundancy inside the slice covers for the loss.
			return
		}
		// Writes must reach every replica of the slice, a read just one.
		budget := v.putTTL
		if read {
			budget = v.getTTL
		}
		s.traceRelay(req, key)
		s.relayGlobal(ctx, v, from, target, req, budget)
		return
	}

	if !s.apply(ctx, v, from, req) {
		s.passOn(ctx, v, from, req)
	}
}

// passOn hands a request for this slice that apply did not finish on to
// the mates: a slice entry starts the intra-slice phase, a mate's copy
// goes on while its TTL lasts.
func (s *dataShard) passOn(ctx context.Context, v *routeView, from transport.NodeID, req request) {
	r := req.routing()
	if r.Intra && r.TTL == 0 {
		return
	}
	key, _ := req.routeKey()
	_, read := req.(*GetRequest)
	fwd := req.hop()
	if r.Intra {
		fwd.routing().TTL--
	} else {
		fwd.routing().enterSlice(v, read)
	}
	s.traceRelay(req, key)
	s.relayIntra(ctx, v, from, fwd)
}

// enterSlice rewrites a copy that leaves a slice entry for the
// intra-slice phase. No mate acks an intra copy, so a write's drops the
// address acks would be dialed at; the mates of a member that missed a
// read answer the origin themselves and keep it.
func (r *Routing) enterSlice(v *routeView, read bool) {
	r.Intra, r.TTL = true, v.intraTTL
	if !read {
		r.OriginAddr = ""
	}
}

// apply is what a member of the key's slice does with a request, the
// one step that differs per kind: what it stores, deletes, acknowledges
// or answers. It reports whether the request is finished here; one that
// is not goes on to the mates (passOn). A get that waits for its
// window's commit is finished here: the commit serves it or passes it
// on.
func (s *dataShard) apply(ctx context.Context, v *routeView, from transport.NodeID, req request) (done bool) {
	n := s.n
	switch m := req.(type) {
	case *PutRequest:
		if !m.Intra {
			// Entry point into the slice: the commit step stores the
			// object, acks it and starts the intra-slice phase.
			s.collectPut(from, m)
			return true
		}
		// Intra-phase copy: no ack obligation, so the write can ride
		// the accumulation window and land as part of one batch append.
		s.traceOp(obs.TracePutApply, m.TraceID, m.Key, len(m.Value), 1)
		s.file(ctx, store.Object{Key: m.Key, Version: m.Version, Value: m.Value})
	case *PutBatchRequest:
		if m.Intra && len(m.Objs) < coalesceMax {
			// A mate's relay of a run: no ack obligation, so its objects
			// wait in the node's window like single relay copies do,
			// whichever shards their keys hash to. (A batch that would
			// fill a window is a commit of its own.)
			s.traceOp(obs.TracePutApply, m.TraceID, m.Objs[0].Key, 0, len(m.Objs))
			s.file(ctx, m.Objs...)
			break
		}
		// Commit the window first so the store applies writes in
		// arrival order.
		s.r.commit(ctx, false)
		s.met.Inc(metrics.PutCommits)
		if n.st.PutBatch(m.Objs) == nil {
			s.met.Add(metrics.PutsServed, uint64(len(m.Objs)))
			s.traceOp(obs.TracePutApply, m.TraceID, m.Objs[0].Key, 0, len(m.Objs))
			s.ack(ctx, m, len(m.Objs))
		}
	case *DeleteBatchRequest:
		// A buffered put of an item's key must be applied before the
		// delete, or a later commit would resurrect the object: the run's
		// commit lands its entry puts and the node's window, where a run
		// of any shard may have filed a relay copy of the key. The ack
		// carries how many items named objects this replica really held,
		// which is what a Redis-style multi-key DEL reports.
		s.r.commit(ctx, false)
		applied, err := n.applyDeleteBatch(m.Items)
		s.met.Add(metrics.DeletesServed, uint64(applied))
		s.traceOp(obs.TraceDeleteApply, m.TraceID, m.Items[0].Key, 0, applied)
		if err == nil {
			s.ack(ctx, m, applied)
		}
	case *GetRequest:
		// A put of this key still waiting in the run or the window lands
		// first: the get waits for the run's commit, at its end, unless
		// something commits sooner. A read of any other key does not wait
		// for a write.
		if s.r.waits(&n.win, m.Key) {
			s.r.gets = append(s.r.gets, waitingGet{m: m, from: from})
			return true
		}
		return s.serveGet(ctx, v, m)
	}
	return false
}

// serveGet answers a get from the store. It reports false when this
// replica does not hold the version (fresh in the slice), so the request
// stays alive among the mates.
func (s *dataShard) serveGet(ctx context.Context, v *routeView, m *GetRequest) bool {
	n := s.n
	val, actual, ok, err := n.st.Get(m.Key, m.Version)
	if err != nil || !ok {
		return false
	}
	s.met.Inc(metrics.GetsServed)
	s.traceOp(obs.TraceGetServe, m.TraceID, m.Key, len(val), 1)
	n.learnOrigin(m.Origin, m.OriginAddr)
	s.reply(ctx, m.Origin, &GetReply{
		ID: m.ID, Version: actual, Value: val, Slice: v.slice,
	}, m.TraceID != 0 || len(val) > relayBatchValueMax)
	return true
}

// ack answers a write (reply) under the one rule there is: only
// a slice entry acks (which bounds acks per write by the flood's slice
// hits, not the slice size), only if the client wants it, and — the
// caller's part — only what the store took. count is what a batch ack
// reports.
func (s *dataShard) ack(ctx context.Context, req request, count int) {
	r := req.routing()
	if r.Intra || r.NoAck || r.Origin == 0 {
		return
	}
	var ack interface{}
	switch m := req.(type) {
	case *PutRequest:
		ack = &PutAck{ID: m.ID, Version: m.Version}
	case *PutBatchRequest:
		ack = &PutBatchAck{ID: m.ID, Stored: count}
	case *DeleteBatchRequest:
		ack = &DeleteBatchAck{ID: m.ID, Applied: count}
	}
	s.n.learnOrigin(r.Origin, r.OriginAddr)
	s.reply(ctx, r.Origin, ack, r.TraceID != 0)
}

// applyDeleteBatch is every delete's store step, a single one being a
// batch of one item. Version store.Latest is the store's to resolve;
// store.AllVersions expands here to one concrete deletion per stored
// version (engines never see the sentinel). The lot is ONE
// store.DeleteBatch call: one lock acquisition and, in the log engine,
// one group-commit fsync — mirroring how batch puts land. applied counts
// the ITEMS that named at least one object this replica really held
// (what DeleteBatchAck reports).
func (n *Node) applyDeleteBatch(items []DeleteItem) (applied int, firstErr error) {
	dels := make([]store.Deletion, 0, len(items))
	itemOf := make([]int, 0, len(items))
	for i, it := range items {
		if it.Version != store.AllVersions {
			dels = append(dels, store.Deletion{Key: it.Key, Version: it.Version})
			itemOf = append(itemOf, i)
			continue
		}
		vs, err := n.st.Versions(it.Key)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, v := range vs {
			dels = append(dels, store.Deletion{Key: it.Key, Version: v})
			itemOf = append(itemOf, i)
		}
	}
	removed, err := n.st.DeleteBatch(dels)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	last := -1 // itemOf never decreases
	for j, e := range removed {
		if e && itemOf[j] != last {
			last = itemOf[j]
			applied++
		}
	}
	return applied, firstErr
}

// learnOrigin teaches the fabric how to dial a reply's destination.
func (n *Node) learnOrigin(origin transport.NodeID, addr string) {
	if n.cfg.AddressBook != nil && addr != "" {
		n.cfg.AddressBook.Learn(origin, addr)
	}
}

// maxMateReply bounds descriptors per MateReply.
const maxMateReply = 16

func (n *Node) onMateQuery(ctx context.Context, from transport.NodeID, m *MateQuery) {
	var mates []pss.Descriptor
	if n.currentSlice() == m.Slice {
		attr, slice := float64(0), m.Slice
		if rs, ok := n.slicer.(*slicing.RankSlicer); ok {
			attr = rs.Attr()
		}
		// Addr included: a querier that meets us only through this reply
		// (a client filling its slice directory) must be able to dial us.
		mates = append(mates, pss.Descriptor{ID: n.id, Age: 0, Attr: attr, Slice: slice, Addr: n.cfg.AdvertiseAddr})
		// Our own intra view is the best source for the querier.
		mates = append(mates, n.intra.Descriptors()...)
	}
	for _, d := range n.pssP.View() {
		if d.Slice == m.Slice {
			mates = append(mates, d)
		}
	}
	// The same mate can sit in both the intra view and the PSS view;
	// dedup so the reply never wastes a slot, and truncate by uniform
	// sampling so PSS-sourced candidates (always appended last) are not
	// systematically starved out of the reply.
	mates = dedupSampleMates(mates, maxMateReply, n.rng)
	if len(mates) == 0 {
		return
	}
	_ = n.send(ctx, metrics.DiscoverySent, from, &MateReply{Slice: m.Slice, Mates: mates})
}

// dedupSampleMates drops duplicate descriptors by ID (first occurrence
// wins) and, when more than max remain, keeps a uniform random sample
// so no source is favored by its position in the slice.
func dedupSampleMates(mates []pss.Descriptor, max int, rng *rand.Rand) []pss.Descriptor {
	seen := make(map[transport.NodeID]bool, len(mates))
	uniq := mates[:0]
	for _, d := range mates {
		if seen[d.ID] {
			continue
		}
		seen[d.ID] = true
		uniq = append(uniq, d)
	}
	if len(uniq) <= max {
		return uniq
	}
	for i := 0; i < max; i++ {
		j := i + rng.IntN(len(uniq)-i)
		uniq[i], uniq[j] = uniq[j], uniq[i]
	}
	return uniq[:max]
}

func (n *Node) onMateReply(m *MateReply) {
	if m.Slice != n.currentSlice() {
		return // we moved on since asking
	}
	for _, d := range m.Mates {
		if d.ID == n.id {
			continue
		}
		if n.cfg.AddressBook != nil && d.Addr != "" {
			n.cfg.AddressBook.Learn(d.ID, d.Addr)
		}
		n.intra.Touch(d, n.round)
	}
}

// String describes the node for logs.
func (n *Node) String() string {
	return fmt.Sprintf("%s[slice=%d/%d store=%d]", n.id, n.currentSlice(), n.slicer.SliceCount(), n.st.Count())
}
