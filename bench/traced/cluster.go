package traced

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// Op is one operation to replay. Gets read the newest version.
type Op struct {
	Put     bool
	Key     string
	Version uint64
	Value   []byte
}

// Config describes one replay. The cluster's shape is the caller's, so
// that the traced cluster and the real-process one cannot drift apart.
type Config struct {
	// Dir holds the nodes' data directories; the caller removes it.
	Dir string
	// Nodes, Slices, Period, SegmentBytes and StableRounds mirror the
	// flasksd flags of the real-process cluster.
	Nodes        int
	Slices       int
	Period       time.Duration
	SegmentBytes int64
	StableRounds int
	// Preload is written straight into the owning replicas' stores
	// before the replay.
	Preload []store.Object
	// Ops are replayed in order by one caller with one op outstanding.
	// Even ops run with the decorators on and odd ops with them off:
	// the two halves share one cluster and one stretch of time, so the
	// difference of their medians is the tracing overhead and nothing
	// else.
	Ops []Op
	// Check verifies a get's reply.
	Check func(o Op, value []byte, version uint64) error
	// OpTimeoutTicks and OpRetries bound one op like the benchmark's
	// WithTimeout/WithRetries do (the client core ticks every 500 ms).
	OpTimeoutTicks, OpRetries int
	// Seed drives the client's choice of contact node.
	Seed uint64
}

// OpTrace locates one replayed op in the span slice.
type OpTrace struct {
	Put bool
	// Traced tells whether the decorators were on for this op. If so,
	// Root is its ClientOp span and Done the ClientComplete span of the
	// reply that completed it; otherwise both are -1.
	Traced     bool
	Root, Done int32
	// E2E is issue to completion in nanoseconds, measured by the caller
	// whether or not spans are recorded.
	E2E int64
}

// Result is what one replay produced.
type Result struct {
	Spans []Span
	Ops   []OpTrace
	// Failed counts ops that erred, timed out or failed verification.
	Failed   int
	FirstErr error
	// Mallocs is runtime.MemStats.Mallocs over the replay: the whole
	// in-process cluster and its client.
	Mallocs uint64
	// SpansDropped and LinkMismatches must be 0 for the budget to be
	// trusted: a full span slice, or a frame that did not match the
	// send it was paired with.
	SpansDropped   int64
	LinkMismatches int64
}

// spanCapacity bounds the recorder: a put leaves about 40 spans and the
// control plane about 200 a second.
const spanCapacity = 1 << 19

// clientID keeps the in-process client clear of node ids, like the
// root package's client id range.
const clientID transport.NodeID = 0xC0FFEE00

// mail is one delivered message with, when it arrived traced, its
// decode span and enqueue time (enq is -1 otherwise).
type mail struct {
	env transport.Envelope
	enq int64
	dec int32
}

// flightRef is what a traced send leaves for the receiver of its frame.
type flightRef struct {
	send   int32
	encEnd int64
	req    uint64
}

// link pairs the frames of one directed connection: TCP keeps their
// order and the fabric writes under a per-connection lock, so the n-th
// encode toward a peer is the n-th decode at that peer. Both ends count
// every frame, traced or not; only traced encodes leave a ref. A ref
// whose frame is decoded untraced stays behind, a few bytes per switch.
type link struct {
	sent, recv atomic.Uint64
	mu         sync.Mutex
	refs       map[uint64]flightRef
}

// endpoint is one node's or the client's attachment to the fabric.
type endpoint struct {
	h       *harness
	idx     uint8
	id      transport.NodeID
	net     *transport.TCPNetwork
	mailbox chan mail
	// decoded maps a decoded message to its decode span until the
	// fabric's handler, called next on the same goroutine, picks it up.
	decoded sync.Map
	// cur is the span the endpoint's loop is inside and curSend the send
	// in progress; only the loop's goroutine touches them.
	cur, curSend int32
	dropped      atomic.Int64
}

type node struct {
	ep    *endpoint
	core  *core.Node
	raw   store.Store // undecorated, for the direct preload
	slice atomic.Int32
}

type harness struct {
	cfg Config
	rec *recorder
	// on is the decorators' switch: off, each passes straight through.
	on    atomic.Bool
	links sync.Map // [2]transport.NodeID -> *link
	nodes []*node
	cl    *endpoint
	cc    *client.Core
	wg    sync.WaitGroup
	stop  context.CancelFunc
	once  sync.Once
	// mismatches counts frames whose request id differed from the send
	// they were paired with.
	mismatches atomic.Int64
}

func (h *harness) link(from, to transport.NodeID) *link {
	if l, ok := h.links.Load([2]transport.NodeID{from, to}); ok {
		return l.(*link)
	}
	l, _ := h.links.LoadOrStore([2]transport.NodeID{from, to}, &link{refs: map[uint64]flightRef{}})
	return l.(*link)
}

// --- decorators --------------------------------------------------------------

// spanCodec records wire.encode and wire.decode, and joins the two ends
// of a frame into a transport.flight span.
type spanCodec struct {
	transport.WireCodec
	ep *endpoint
}

func (c *spanCodec) Encode(buf []byte, env *transport.WireEnvelope) ([]byte, error) {
	h := c.ep.h
	l := h.link(env.From, env.To)
	if !h.on.Load() {
		out, err := c.WireCodec.Encode(buf, env)
		if err == nil {
			l.sent.Add(1)
		}
		return out, err
	}
	t0 := h.rec.now()
	out, err := c.WireCodec.Encode(buf, env)
	if err != nil {
		return out, err
	}
	t1 := h.rec.now()
	req := reqOf(env.Msg)
	h.rec.add(Span{Kind: WireEncode, Node: c.ep.idx, Parent: c.ep.curSend, Req: req, Start: t0, End: t1, N: int32(len(out) - len(buf))})
	seq := l.sent.Add(1)
	l.mu.Lock()
	l.refs[seq] = flightRef{send: c.ep.curSend, encEnd: t1, req: req}
	l.mu.Unlock()
	return out, nil
}

func (c *spanCodec) Decode(data []byte) (*transport.WireEnvelope, error) {
	h := c.ep.h
	if !h.on.Load() {
		env, err := c.WireCodec.Decode(data)
		if err == nil {
			h.link(env.From, c.ep.id).recv.Add(1)
		}
		return env, err
	}
	t0 := h.rec.now()
	env, err := c.WireCodec.Decode(data)
	if err != nil {
		return env, err
	}
	t1 := h.rec.now()
	req := reqOf(env.Msg)
	l := h.link(env.From, c.ep.id)
	seq := l.recv.Add(1)
	l.mu.Lock()
	ref, ok := l.refs[seq]
	delete(l.refs, seq)
	l.mu.Unlock()
	parent := int32(-1)
	switch {
	case !ok: // encoded while the decorators were off
	case ref.req != req:
		h.mismatches.Add(1)
	default:
		parent = h.rec.add(Span{Kind: TransportFlight, Node: c.ep.idx, Parent: ref.send, Req: req, Start: ref.encEnd, End: t0})
	}
	d := h.rec.add(Span{Kind: WireDecode, Node: c.ep.idx, Parent: parent, Req: req, Start: t0, End: t1, N: int32(len(data))})
	c.ep.decoded.Store(env.Msg, d)
	return env, nil
}

// spanSender records transport.send around the fabric's Send.
type spanSender struct {
	inner transport.Sender
	ep    *endpoint
}

func (s *spanSender) Send(ctx context.Context, to transport.NodeID, msg interface{}) error {
	h := s.ep.h
	if !h.on.Load() {
		return s.inner.Send(ctx, to, msg)
	}
	i := h.rec.add(Span{Kind: TransportSend, Node: s.ep.idx, Parent: s.ep.cur, Req: reqOf(msg), Start: h.rec.now()})
	s.ep.curSend = i
	err := s.inner.Send(ctx, to, msg)
	s.ep.curSend = -1
	h.rec.end(i, h.rec.now())
	return err
}

// spanStore records the three store calls on the request path; every
// other method goes straight to the engine.
type spanStore struct {
	store.Store
	ep *endpoint
}

func (s *spanStore) timed(kind Kind, n int, call func()) {
	h := s.ep.h
	if !h.on.Load() {
		call()
		return
	}
	i := h.rec.add(Span{Kind: kind, Node: s.ep.idx, Parent: s.ep.cur, Start: h.rec.now(), N: int32(n)})
	call()
	h.rec.end(i, h.rec.now())
}

func (s *spanStore) Put(key string, version uint64, value []byte) (err error) {
	s.timed(StorePut, 1, func() { err = s.Store.Put(key, version, value) })
	return err
}

func (s *spanStore) PutBatch(objs []store.Object) (err error) {
	s.timed(StorePutBatch, len(objs), func() { err = s.Store.PutBatch(objs) })
	return err
}

func (s *spanStore) Get(key string, version uint64) (value []byte, actual uint64, ok bool, err error) {
	s.timed(StoreGet, 1, func() { value, actual, ok, err = s.Store.Get(key, version) })
	return value, actual, ok, err
}

// --- assembly ----------------------------------------------------------------

// attach opens one endpoint's TCP fabric. Its handler stamps the
// enqueue time and never blocks: a full mailbox drops, like flasksd's.
func (h *harness) attach(idx uint8, id transport.NodeID) (*endpoint, transport.Sender, error) {
	ep := &endpoint{h: h, idx: idx, id: id, mailbox: make(chan mail, 4096), cur: -1, curSend: -1}
	handler := func(env transport.Envelope) {
		m := mail{env: env, enq: -1, dec: -1}
		if h.on.Load() {
			if d, ok := ep.decoded.LoadAndDelete(env.Msg); ok {
				m.dec = d.(int32)
			}
			m.enq = h.rec.now()
		}
		select {
		case ep.mailbox <- m:
		default:
			ep.dropped.Add(1)
		}
	}
	codec := &spanCodec{WireCodec: wire.BinaryCodec(), ep: ep}
	net, err := transport.ListenTCP(id, "127.0.0.1:0", "", transport.TCPConfig{Codec: codec}, handler)
	if err != nil {
		return nil, nil, err
	}
	ep.net = net
	return ep, &spanSender{inner: net.Sender(), ep: ep}, nil
}

// start brings the cluster up: nodes, their loops, convergence, preload
// and the client.
func (h *harness) start(ctx context.Context) error {
	cfg := h.cfg
	storeCfg := core.StoreConfig{Engine: core.StoreLog, Fsync: true, SegmentMaxBytes: cfg.SegmentBytes}
	for i := 1; i <= cfg.Nodes; i++ {
		id := transport.NodeID(i)
		ep, sender, err := h.attach(uint8(i), id)
		if err != nil {
			return err
		}
		raw, err := storeCfg.Open(filepath.Join(cfg.Dir, fmt.Sprintf("n%d", i)))
		if err != nil {
			_ = ep.net.Close()
			return err
		}
		n := &node{ep: ep, raw: raw}
		n.slice.Store(-1)
		n.core = core.NewNode(id, core.Config{
			Slices: cfg.Slices, SystemSize: cfg.Nodes, Capacity: float64(i),
			RoundPeriod: cfg.Period, Store: storeCfg,
			AdvertiseAddr: ep.net.Addr(), AddressBook: ep.net,
		}, &spanStore{Store: raw, ep: ep}, sender)
		var seeds []transport.NodeID
		if i > 1 {
			ep.net.Learn(1, h.nodes[0].ep.net.Addr())
			seeds = []transport.NodeID{1}
		}
		n.core.Bootstrap(seeds)
		h.nodes = append(h.nodes, n)
	}
	loopCtx, stop := context.WithCancel(context.Background())
	h.stop = stop
	for _, n := range h.nodes {
		h.wg.Add(1)
		go h.runNode(loopCtx, n)
	}
	if err := h.waitConverged(ctx); err != nil {
		return err
	}
	if err := h.preload(); err != nil {
		return err
	}

	ep, sender, err := h.attach(0, clientID)
	if err != nil {
		return err
	}
	h.cl = ep
	ids := make([]transport.NodeID, len(h.nodes))
	for i, n := range h.nodes {
		ids[i] = n.ep.id
		ep.net.Learn(n.ep.id, n.ep.net.Addr())
	}
	lb := client.NewRandomLB(ids, rand.New(rand.NewPCG(cfg.Seed, 0x7ace)))
	h.cc = client.NewCore(clientID, client.Config{PutAcks: 1, SelfAddr: ep.net.Addr()}, sender, lb)
	return nil
}

// runNode is a node's event loop: flasksd's, with a span around each
// mailbox wait, handled message and tick.
func (h *harness) runNode(ctx context.Context, n *node) {
	defer h.wg.Done()
	ticker := time.NewTicker(h.cfg.Period)
	defer ticker.Stop()
	rec, ep := h.rec, n.ep
	for {
		select {
		case m := <-ep.mailbox:
			if !h.on.Load() || m.enq < 0 {
				n.core.HandleMessage(ctx, m.env)
				continue
			}
			t, req := rec.now(), reqOf(m.env.Msg)
			w := rec.add(Span{Kind: MailboxWait, Node: ep.idx, Parent: m.dec, Req: req, Start: m.enq, End: t})
			ep.cur = rec.add(Span{Kind: CoreHandle, Node: ep.idx, Parent: w, Req: req, Start: t})
			n.core.HandleMessage(ctx, m.env)
			rec.end(ep.cur, rec.now())
			ep.cur = -1
		case <-ticker.C:
			if h.on.Load() {
				ep.cur = rec.add(Span{Kind: CoreTick, Node: ep.idx, Parent: -1, Start: rec.now()})
			}
			n.core.Tick(ctx)
			rec.end(ep.cur, rec.now())
			ep.cur = -1
			n.slice.Store(n.core.Slice())
		case <-ctx.Done():
			return
		}
	}
}

// waitConverged applies the real-process run's gate: the slice
// assignment is even and unchanged for StableRounds rounds.
func (h *harness) waitConverged(ctx context.Context) error {
	var last []int32
	stable := 0
	tick := time.NewTicker(h.cfg.Period)
	defer tick.Stop()
	for {
		cur := make([]int32, len(h.nodes))
		count := make([]int, h.cfg.Slices)
		same := len(last) == len(cur)
		for i, n := range h.nodes {
			cur[i] = n.slice.Load()
			if cur[i] >= 0 && int(cur[i]) < len(count) {
				count[cur[i]]++
			}
			same = same && last[i] == cur[i]
		}
		even := true
		for _, c := range count {
			even = even && c == len(h.nodes)/h.cfg.Slices
		}
		if even && same {
			stable++
		} else {
			stable = 0
		}
		last = cur
		if stable >= h.cfg.StableRounds {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("traced: slicing never settled (last %v): %w", last, ctx.Err())
		case <-tick.C:
		}
	}
}

// preload writes each object into the stores of its slice's nodes.
func (h *harness) preload() error {
	bySlice := make([][]store.Object, h.cfg.Slices)
	for _, o := range h.cfg.Preload {
		s := slicing.KeySlice(o.Key, h.cfg.Slices)
		bySlice[s] = append(bySlice[s], o)
	}
	for _, n := range h.nodes {
		objs := bySlice[n.slice.Load()]
		for len(objs) > 0 {
			chunk := objs[:min(len(objs), 500)]
			if err := n.raw.PutBatch(chunk); err != nil {
				return fmt.Errorf("traced: preload node %d: %w", n.ep.id, err)
			}
			objs = objs[len(chunk):]
		}
	}
	return nil
}

// close stops the loops and the fabrics and closes the stores.
func (h *harness) close() {
	h.once.Do(func() {
		if h.stop != nil {
			h.stop()
		}
		h.wg.Wait()
		if h.cl != nil {
			_ = h.cl.net.Close()
		}
		for _, n := range h.nodes {
			_ = n.ep.net.Close()
			_ = n.raw.Close()
		}
	})
}

// --- replay ------------------------------------------------------------------

// Run assembles the cluster, replays cfg.Ops and tears it down.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	h := &harness{cfg: cfg, rec: newRecorder(spanCapacity)}
	defer h.close()
	if err := h.start(ctx); err != nil {
		return nil, err
	}
	res := &Result{Ops: make([]OpTrace, 0, len(cfg.Ops))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.replay(ctx, res)
	runtime.ReadMemStats(&after)
	res.Mallocs = after.Mallocs - before.Mallocs
	h.close() // every recording goroutine has ended: the spans may be read
	res.Spans = h.rec.recorded()
	res.SpansDropped = h.rec.dropped.Load()
	res.LinkMismatches = h.mismatches.Load()
	for _, n := range h.nodes {
		if d := n.ep.dropped.Load(); d > 0 && res.FirstErr == nil {
			res.FirstErr = fmt.Errorf("traced: node %d dropped %d messages from a full mailbox", n.ep.id, d)
		}
	}
	return res, nil
}

// replay is the client's loop and the caller in one goroutine: it
// starts an op on the client core, then serves the client's mailbox and
// ticks until the op's callback fires.
func (h *harness) replay(ctx context.Context, res *Result) {
	rec, ep := h.rec, h.cl
	opts := client.Opts{TimeoutTicks: h.cfg.OpTimeoutTicks, Retries: h.cfg.OpRetries}
	ticker := time.NewTicker(500 * time.Millisecond) // the live client's tick
	defer ticker.Stop()
	defer h.on.Store(false)
	for i, o := range h.cfg.Ops {
		// Late duplicate replies of earlier ops are not this op's time.
		for drained := false; !drained; {
			select {
			case m := <-ep.mailbox:
				h.cc.HandleMessage(m.env)
			default:
				drained = true
			}
		}
		tr := OpTrace{Put: o.Put, Traced: i%2 == 0, Root: -1, Done: -1}
		h.on.Store(tr.Traced)
		var out *client.Result
		done := func(r client.Result) { out = &r }
		start := time.Now()
		if tr.Traced {
			t := rec.now()
			tr.Root = rec.add(Span{Kind: ClientOp, Parent: -1, Start: t})
			ep.cur = rec.add(Span{Kind: ClientIssue, Parent: tr.Root, Start: t})
		}
		var id uint64
		if o.Put {
			id = uint64(h.cc.StartPutOpts(o.Key, o.Version, o.Value, opts, done))
		} else {
			id = uint64(h.cc.StartGetOpts(o.Key, store.Latest, opts, done))
		}
		if tr.Traced {
			rec.end(ep.cur, rec.now())
			if ep.cur >= 0 && tr.Root >= 0 {
				rec.spans[ep.cur].Req, rec.spans[tr.Root].Req = id, id
			}
			ep.cur = -1
		}
		for out == nil {
			select {
			case m := <-ep.mailbox:
				c := int32(-1)
				if tr.Traced && m.enq >= 0 {
					c = rec.add(Span{Kind: ClientComplete, Parent: m.dec, Req: reqOf(m.env.Msg), Start: m.enq})
				}
				h.cc.HandleMessage(m.env)
				rec.end(c, rec.now())
				if out != nil {
					tr.Done = c
				}
			case <-ticker.C:
				h.cc.Tick()
			case <-ctx.Done():
				out = &client.Result{Err: ctx.Err()}
			}
		}
		tr.E2E = int64(time.Since(start))
		rec.end(tr.Root, rec.now())
		res.Ops = append(res.Ops, tr)
		err := out.Err
		if err == nil && !o.Put && h.cfg.Check != nil {
			err = h.cfg.Check(o, out.Value, out.Version)
		}
		if err != nil {
			res.Failed++
			if res.FirstErr == nil {
				res.FirstErr = fmt.Errorf("traced: op %d %q: %w", i, o.Key, err)
			}
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// PutNoFsyncUs replays the puts among ops against a twin of a node's
// store opened with Fsync off, in dir, and returns the median Put time
// in microseconds. Against store.put it shows how much of a durable
// put is the wait for the group commit.
func PutNoFsyncUs(dir string, segmentBytes int64, ops []Op) (float64, error) {
	st, err := core.StoreConfig{Engine: core.StoreLog, SegmentMaxBytes: segmentBytes}.Open(dir)
	if err != nil {
		return 0, err
	}
	var us []float64
	for _, o := range ops {
		if !o.Put {
			continue
		}
		t0 := time.Now()
		if err := st.Put(o.Key, o.Version, o.Value); err != nil {
			_ = st.Close()
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	return medianOf(us), nil
}
