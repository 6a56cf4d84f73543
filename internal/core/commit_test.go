package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dataflasks/internal/gossip"
	"dataflasks/internal/metrics"
	"dataflasks/internal/pss"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

const (
	runMate   = transport.NodeID(9)
	runClient = transport.NodeID(0xC0000001)
)

// runStore records every write the put path makes and can hold the
// first one: the shard then sits in its commit while the test queues
// the next run behind it.
type runStore struct {
	store.Store

	mu     sync.Mutex
	writes []string // "put 1", "batch 31": one entry per store call, objects each
	stored map[objRef]bool

	entered chan struct{} // closed when the first write is entered
	release chan struct{} // the first write proceeds once this closes (nil: no hold)
	held    bool
}

func newRunStore(hold bool) *runStore {
	r := &runStore{Store: store.NewMemory(), stored: map[objRef]bool{}, entered: make(chan struct{})}
	if hold {
		r.release = make(chan struct{})
	}
	return r
}

func (r *runStore) enter(call string) {
	r.mu.Lock()
	r.writes = append(r.writes, call)
	first := !r.held
	r.held = true
	r.mu.Unlock()
	if first {
		close(r.entered)
		if r.release != nil {
			<-r.release
		}
	}
}

func (r *runStore) Put(key string, version uint64, value []byte) error {
	r.enter("put 1")
	err := r.Store.Put(key, version, value)
	if err == nil {
		r.mu.Lock()
		r.stored[objRef{key, version}] = true
		r.mu.Unlock()
	}
	return err
}

func (r *runStore) PutBatch(objs []store.Object) error {
	r.enter(fmt.Sprintf("batch %d", len(objs)))
	err := r.Store.PutBatch(objs)
	if err == nil {
		r.mu.Lock()
		for _, o := range objs {
			r.stored[objRef{o.Key, o.Version}] = true
		}
		r.mu.Unlock()
	}
	return err
}

// let releases a held write, if the test has not yet: a test that fails
// while the write is held must not leave its run parked in it, or the
// shards' stop would wait for that run forever.
func (r *runStore) let() {
	if r.release == nil {
		return
	}
	select {
	case <-r.release:
	default:
		close(r.release)
	}
}

func (r *runStore) calls() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.writes...)
}

func (r *runStore) holds(key string, version uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stored[objRef{key, version}]
}

// answersIn flattens one message handed to the fabric: a reply batch is
// the answers it carries, anything else is itself. Fakes that count acks
// and replies count through it, however a run framed them.
func answersIn(msg interface{}) []interface{} {
	if r, ok := msg.(*Replies); ok {
		return r.Msgs
	}
	return []interface{}{msg}
}

// requestKeys maps the ids of the requests a test handed a node to their
// keys. An answer names its request by id alone, so a test reads an
// answer's key here, the way a client reads it off its pending op.
type requestKeys struct {
	mu sync.Mutex
	m  map[gossip.RequestID]string
}

// sent notes the key of the request env carries and returns env.
func (k *requestKeys) sent(env transport.Envelope) transport.Envelope {
	var id gossip.RequestID
	var key string
	switch m := env.Msg.(type) {
	case *PutRequest:
		id, key = m.ID, m.Key
	case *GetRequest:
		id, key = m.ID, m.Key
	default:
		return env
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.m == nil {
		k.m = map[gossip.RequestID]string{}
	}
	k.m[id] = key
	return env
}

// of is the key of the request a PutAck or GetReply answers ("" for
// any other message, or a request the test did not note).
func (k *requestKeys) of(answer interface{}) string {
	var id gossip.RequestID
	switch m := answer.(type) {
	case *PutAck:
		id = m.ID
	case *GetReply:
		id = m.ID
	default:
		return ""
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.m[id]
}

// runHarness is a single-slice node with one mate on externally-run
// shards (one shard, so every key shares a mailbox), a recording store
// and a recording fabric that checks, at the moment a PutAck leaves,
// that the store already returned for its object.
type runHarness struct {
	t  *testing.T
	n  *Node
	st *runStore

	mu sync.Mutex
	// sent is every message handed to the fabric with reply batches
	// flattened (answersIn); frames is what was handed over, as it was.
	sent   []transport.Envelope
	frames []sentFrame
	// keys names what the acks and replies answer: dispatch notes every
	// request it hands over.
	keys requestKeys
}

// sentFrame is one message handed to the fabric, with how many store
// writes had been entered by then.
type sentFrame struct {
	to     transport.NodeID
	msg    interface{}
	writes int
}

func newRunHarness(t *testing.T, st *runStore, cfg Config) *runHarness {
	t.Helper()
	h := &runHarness{t: t, st: st}
	cfg.Slices, cfg.Slicer, cfg.AntiEntropyEvery, cfg.Seed = 1, SlicerStatic, -1, 7
	cfg.RoundPeriod = time.Hour // no tick commits behind the test's back
	h.n = NewNode(1, cfg, st, transport.SenderFunc(
		func(_ context.Context, to transport.NodeID, msg interface{}) error {
			writes := len(st.calls())
			h.mu.Lock()
			defer h.mu.Unlock()
			h.frames = append(h.frames, sentFrame{to: to, msg: msg, writes: writes})
			for _, m := range answersIn(msg) {
				if ack, ok := m.(*PutAck); ok && !st.holds(h.keys.of(ack), ack.Version) {
					t.Errorf("PutAck for %s v%d left before the store held it", h.keys.of(ack), ack.Version)
				}
				h.sent = append(h.sent, transport.Envelope{From: 1, To: to, Msg: m})
			}
			return nil
		}))
	h.n.HandleMessage(context.Background(), transport.Envelope{
		From: runMate, To: 1, Msg: &MateReply{Slice: 0, Mates: []pss.Descriptor{{ID: runMate, Slice: 0}}},
	})
	return h
}

// start runs the shards; the returned stop drains them (a test's last
// step before it reads what was sent).
func (h *runHarness) start() (stop func()) {
	h.n.StartShards(context.Background())
	var once sync.Once
	stop = func() { once.Do(h.n.StopShards) }
	h.t.Cleanup(stop)
	h.t.Cleanup(h.st.let) // cleanups run last-in first-out: before the stop
	return stop
}

func (h *runHarness) dispatch(msgs ...interface{}) {
	h.t.Helper()
	for _, m := range msgs {
		if !h.n.DispatchData(h.keys.sent(transport.Envelope{From: runClient, To: 1, Msg: m})) {
			h.t.Fatal("DispatchData declined a data envelope in external mode")
		}
	}
}

// holdThenRun parks the shard in the store write of a first put, queues
// msgs behind it as the next run, and lets go.
func (h *runHarness) holdThenRun(msgs ...interface{}) {
	h.t.Helper()
	h.dispatch(entryPut1("hold", 1, 1000))
	<-h.st.entered
	h.dispatch(msgs...)
	close(h.st.release)
}

func (h *runHarness) sentOf(pick func(interface{}) bool) []transport.Envelope {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []transport.Envelope
	for _, env := range h.sent {
		if pick(env.Msg) {
			out = append(out, env)
		}
	}
	return out
}

func isAck(m interface{}) bool   { _, ok := m.(*PutAck); return ok }
func isReply(m interface{}) bool { _, ok := m.(*GetReply); return ok }
func isIntra(m interface{}) bool {
	switch m := m.(type) {
	case *PutRequest:
		return m.Intra
	case *PutBatchRequest:
		return m.Intra
	}
	return false
}

// entryPut1 is a client's global-phase put: the node is its slice entry.
func entryPut1(key string, version uint64, seq uint32) *PutRequest {
	return &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(runClient, seq), Origin: runClient, TTL: TTLUnset},
		Key:     key, Version: version, Value: []byte(key),
	}
}

func getOf(key string, seq uint32) *GetRequest {
	return &GetRequest{
		Routing: Routing{ID: gossip.MakeRequestID(runClient, seq), Origin: runClient, TTL: TTLUnset},
		Key:     key, Version: store.Latest,
	}
}

// TestDrainCommitsARunOnce is the tentpole's contract: 32 entry puts, 31
// of them queued while the first sits in its store write, cost two
// commits and two intra relays, and no ack leaves before its commit
// returned (the fabric checks that on every PutAck).
func TestDrainCommitsARunOnce(t *testing.T) {
	st := newRunStore(true)
	h := newRunHarness(t, st, Config{})
	stop := h.start()

	h.dispatch(entryPut1("k0", 1, 1))
	<-st.entered
	if acks := h.sentOf(isAck); len(acks) != 0 {
		t.Fatalf("%d acks sent while the store write is still in flight", len(acks))
	}
	for i := 1; i < 32; i++ {
		h.dispatch(entryPut1(fmt.Sprintf("k%d", i), 1, uint32(i+1)))
	}
	close(st.release)
	stop()

	if calls := st.calls(); len(calls) != 2 || calls[0] != "put 1" || calls[1] != "batch 31" {
		t.Fatalf("store writes = %v, want [put 1, batch 31]", calls)
	}
	m := h.n.Metrics()
	if got := m.Get(metrics.PutCommits); got != 2 {
		t.Errorf("put_commits = %d, want 2", got)
	}
	if got := m.Get(metrics.PutsServed); got != 32 {
		t.Errorf("puts_served = %d, want 32", got)
	}
	if got := m.Get(metrics.CoalescedPuts); got != 0 {
		t.Errorf("coalesced_puts = %d, want 0: entry puts are not relay copies", got)
	}
	if acks := h.sentOf(isAck); len(acks) != 32 {
		t.Errorf("%d PutAcks, want 32", len(acks))
	}
	relays := h.sentOf(isIntra)
	if len(relays) != 2 {
		t.Fatalf("%d intra relay messages, want 2: %+v", len(relays), relays)
	}
	if single, ok := relays[0].Msg.(*PutRequest); !ok || single.Key != "k0" || relays[0].To != runMate {
		t.Errorf("first relay = %+v, want the PutRequest{Intra} copy of k0 to the mate", relays[0])
	}
	batch, ok := relays[1].Msg.(*PutBatchRequest)
	if !ok || len(batch.Objs) != 31 || !batch.NoAck || batch.Origin != 0 || batch.ID.Origin() != 1 {
		t.Fatalf("second relay = %+v, want a node-minted PutBatchRequest{Intra, NoAck} of 31 objects", relays[1].Msg)
	}
	for i, o := range batch.Objs {
		if want := fmt.Sprintf("k%d", i+1); o.Key != want {
			t.Fatalf("batched relay object %d is %s, want %s (arrival order)", i, o.Key, want)
		}
	}

	// The mate's own relay can bring the batch back: the node that minted
	// it must suppress it, not store and forward it again.
	h.n.HandleMessage(context.Background(), transport.Envelope{From: runMate, To: 1, Msg: batch})
	if got := h.n.Metrics().Get(metrics.DuplicatesSuppressed); got != 1 {
		t.Errorf("echo of the minted batch: duplicates_suppressed = %d, want 1", got)
	}
	if calls := st.calls(); len(calls) != 2 {
		t.Errorf("echo of the minted batch reached the store: %v", calls)
	}
}

// intraBatch is a mate's batched relay of version of keys.
func intraBatch(seq uint32, version uint64, keys ...string) *PutBatchRequest {
	objs := make([]store.Object, len(keys))
	for i, k := range keys {
		objs[i] = store.Object{Key: k, Version: version, Value: []byte(k)}
	}
	return &PutBatchRequest{Routing: Routing{ID: gossip.MakeRequestID(runMate, seq), Intra: true, NoAck: true}, Objs: objs}
}

// keyOnShard returns the first key with prefix that hashes to shard i of
// shards.
func keyOnShard(prefix string, i, shards int) string {
	for j := 0; ; j++ {
		if k := fmt.Sprintf("%s%d", prefix, j); shardIndex(k, shards) == i {
			return k
		}
	}
}

// TestIntraBatchRidesTheWindow: a mate files a batched relay in its
// accumulation window (no store call), and the window lands as one
// PutBatch at the tick or at coalesceMax.
func TestIntraBatchRidesTheWindow(t *testing.T) {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	relay := func(seq uint32, keys ...string) *PutBatchRequest { return intraBatch(seq, 1, keys...) }
	ctx := context.Background()

	st := newRunStore(false)
	h := newRunHarness(t, st, Config{})
	h.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: relay(1, "a", "b", "c")})
	if calls := st.calls(); len(calls) != 0 {
		t.Fatalf("intra batch hit the store on arrival: %v", calls)
	}
	h.n.Tick(ctx)
	if calls := st.calls(); len(calls) != 1 || calls[0] != "batch 3" {
		t.Fatalf("after the tick store writes = %v, want [batch 3]", calls)
	}
	if got := h.n.Metrics().Get(metrics.CoalescedPuts); got != 3 {
		t.Errorf("coalesced_puts = %d, want 3", got)
	}
	// coalesceMax objects in the window commit without waiting for a
	// tick; the one over waits for the next commit.
	h.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: relay(2, names("d", 40)...)})
	h.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: relay(3, names("e", coalesceMax-40+1)...)})
	if calls, want := st.calls(), fmt.Sprintf("batch %d", coalesceMax); len(calls) != 2 || calls[1] != want {
		t.Fatalf("at coalesceMax store writes = %v, want a second [%s]", calls, want)
	}
	// A batch that would fill the window by itself (a client's batch on
	// its intra phase) is a commit of its own, behind what was waiting.
	h.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: relay(4, names("f", coalesceMax)...)})
	if calls, want := st.calls(), fmt.Sprintf("batch %d", coalesceMax); len(calls) != 4 || calls[2] != "put 1" || calls[3] != want {
		t.Fatalf("window-sized batch: store writes = %v, want [... put 1, %s]", calls, want)
	}

}

// TestGetCommitsOnlyForItsOwnKey: inside a run a get of a key with a
// collected put sees that put (it waits for the run's commit), and a get
// of any other key is served before the run's store write; a window of
// relay copies is only committed for a get of one of its keys.
func TestGetCommitsOnlyForItsOwnKey(t *testing.T) {
	st := newRunStore(true)
	h := newRunHarness(t, st, Config{})
	if err := st.Store.Put("cold", 1, []byte("cold")); err != nil {
		t.Fatal(err)
	}
	stop := h.start()
	h.holdThenRun(entryPut1("hot", 1, 1), getOf("cold", 2), getOf("hot", 3))
	stop()

	var order []string
	for _, env := range h.sentOf(func(m interface{}) bool { return isAck(m) || isReply(m) }) {
		switch m := env.Msg.(type) {
		case *PutAck:
			order = append(order, "ack "+h.keys.of(m))
		case *GetReply:
			order = append(order, "reply "+h.keys.of(m)+"="+string(m.Value))
		}
	}
	want := []string{"ack hold", "reply cold=cold", "ack hot", "reply hot=hot"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("acks and replies = %v, want %v", order, want)
	}
	if calls := st.calls(); len(calls) != 2 {
		t.Fatalf("store writes = %v, want 2 (the held put, then the run's one commit)", calls)
	}

	// Window of relay copies, inline: the parent flushed it on every get.
	st2 := newRunStore(false)
	h2 := newRunHarness(t, st2, Config{})
	if err := st2.Store.Put("cold", 1, []byte("cold")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	copyOf := entryPut1("warm", 1, 1)
	copyOf.Intra, copyOf.NoAck = true, true
	h2.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: copyOf})
	h2.n.HandleMessage(ctx, transport.Envelope{From: runClient, To: 1, Msg: getOf("cold", 2)})
	if calls := st2.calls(); len(calls) != 0 {
		t.Fatalf("a get of another key paid for %v", calls)
	}
	h2.n.HandleMessage(ctx, transport.Envelope{From: runClient, To: 1, Msg: getOf("warm", 3)})
	replies := h2.sentOf(isReply)
	if len(replies) != 2 || string(replies[1].Msg.(*GetReply).Value) != "warm" {
		t.Fatalf("get of a windowed key: replies = %+v", replies)
	}
	if calls := st2.calls(); len(calls) != 1 {
		t.Fatalf("get of a windowed key: store writes = %v, want 1", calls)
	}
}

// TestRunWithOneRefusedPut: an entry put no store takes — a reserved
// version, a key over store.MaxKeyLen — is refused where it enters the
// window, so it can fail nobody's batch: it is neither stored, acked nor
// relayed, and its window-mates land as one batch, acked and relayed.
func TestRunWithOneRefusedPut(t *testing.T) {
	st := newRunStore(true)
	h := newRunHarness(t, st, Config{})
	stop := h.start()
	reserved := entryPut1("reserved", store.Latest, 2)
	long := entryPut1(strings.Repeat("k", store.MaxKeyLen+1), 1, 3)
	h.holdThenRun(entryPut1("a", 1, 1), reserved, long, entryPut1("b", 1, 4))
	stop()

	acked := map[string]bool{}
	for _, env := range h.sentOf(isAck) {
		acked[h.keys.of(env.Msg)] = true
	}
	if !acked["hold"] || !acked["a"] || !acked["b"] || len(acked) != 3 {
		t.Fatalf("acked = %v, want hold, a and b", acked)
	}
	if calls := st.calls(); fmt.Sprint(calls) != "[put 1 batch 2]" {
		t.Errorf("store writes = %v, want [put 1 batch 2]: the refused puts never joined the window", calls)
	}
	if got := h.n.Metrics().Get(metrics.PutsServed); got != 3 {
		t.Errorf("puts_served = %d, want 3", got)
	}
	relays := h.sentOf(isIntra)
	if len(relays) != 2 || len(relays[1].Msg.(*PutBatchRequest).Objs) != 2 {
		t.Fatalf("relays = %+v, want the held put and one batch of 2", relays)
	}
}

const runClient2 = transport.NodeID(0xC0000002)

// describe names a message handed to the fabric for the frame tests: a
// reply batch lists its answers, and an answer names the key of its
// request in keys.
func describe(keys *requestKeys, msg interface{}) string {
	switch m := msg.(type) {
	case *Replies:
		parts := make([]string, len(m.Msgs))
		for i, a := range m.Msgs {
			parts[i] = describe(keys, a)
		}
		return "replies(" + strings.Join(parts, ", ") + ")"
	case *PutAck:
		return "ack " + keys.of(m)
	case *GetReply:
		return "reply " + keys.of(m)
	case *PutRequest:
		return "relay " + m.Key
	case *PutBatchRequest:
		keys := make([]string, len(m.Objs))
		for i, o := range m.Objs {
			keys[i] = o.Key
		}
		return "relay [" + strings.Join(keys, " ") + "]"
	}
	return fmt.Sprintf("%T", msg)
}

// frameLines is every frame the fabric was handed, in order: destination,
// what it carries, and after how many store writes it left.
func (h *runHarness) frameLines() []string {
	names := map[transport.NodeID]string{runClient: "client", runClient2: "client2", runMate: "mate"}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.frames))
	for i, f := range h.frames {
		out[i] = fmt.Sprintf("%s %s @%d", names[f.to], describe(&h.keys, f.msg), f.writes)
	}
	return out
}

// TestRunAnswerFrames: the answers a run produces for one origin leave as
// one reply batch, in the order they were produced — the get replies
// before the run's store write, the acks after it and before the intra
// relay; each origin gets its own frame, an origin's only answer goes as
// itself, and a traced request's answer or an oversized get reply goes
// alone, the moment it is produced.
func TestRunAnswerFrames(t *testing.T) {
	from2 := func(m request) request {
		m.routing().Origin = runClient2
		return m
	}
	traced := func(m request) request {
		m.routing().TraceID = 99
		return m
	}
	held := []string{"client ack hold @1", "mate relay hold @1"}
	for _, tc := range []struct {
		name   string
		run    []interface{}
		want   []string
		shared uint64
	}{
		{"one origin",
			[]interface{}{entryPut1("a", 1, 1), getOf("c1", 2), entryPut1("b", 1, 3), getOf("c2", 4), entryPut1("c", 1, 5), getOf("c3", 6)},
			[]string{
				"client replies(reply c1, reply c2, reply c3) @1",
				"client replies(ack a, ack b, ack c) @2",
				"mate relay [a b c] @2",
			}, 6},
		{"two origins",
			[]interface{}{getOf("c1", 1), from2(getOf("c2", 2)), getOf("c3", 3), entryPut1("a", 1, 4), from2(entryPut1("b", 1, 5))},
			[]string{
				"client replies(reply c1, reply c3) @1",
				"client2 reply c2 @1",
				"client ack a @2",
				"client2 ack b @2",
				"mate relay [a b] @2",
			}, 2},
		{"traced and oversized",
			[]interface{}{getOf("c1", 1), traced(getOf("c2", 2)), getOf("big", 3), getOf("c3", 4), traced(entryPut1("a", 1, 5)), entryPut1("b", 1, 6)},
			[]string{
				"client reply c2 @1",
				"client reply big @1",
				"client replies(reply c1, reply c3) @1",
				"client ack a @2",
				"client ack b @2",
				"mate relay a @2",
				"mate relay b @2",
			}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newRunStore(true)
			for _, k := range []string{"c1", "c2", "c3"} {
				if err := st.Store.Put(k, 1, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Store.Put("big", 1, make([]byte, relayBatchValueMax+1)); err != nil {
				t.Fatal(err)
			}
			h := newRunHarness(t, st, Config{})
			stop := h.start()
			h.holdThenRun(tc.run...)
			stop()
			want := append(append([]string(nil), held...), tc.want...)
			if got := h.frameLines(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("frames:\n got  %q\n want %q", got, want)
			}
			if got := h.n.Metrics().Get(metrics.SharedAnswers); got != tc.shared {
				t.Errorf("shared_answers = %d, want %d", got, tc.shared)
			}
			if got, want := h.n.Metrics().Get(metrics.DataSent), uint64(len(want)); got != want {
				t.Errorf("data_sent = %d, want %d: one per frame", got, want)
			}
		})
	}
}

// queueThenRun queues msgs while every shard's run token is held, so the
// wake-ups they cause find nothing to take, and then lets one wake-up
// take them all as one run.
func (h *runHarness) queueThenRun(msgs ...interface{}) {
	h.t.Helper()
	for _, s := range h.n.shards {
		s.token.Lock()
	}
	h.dispatch(msgs...)
	for len(h.n.wake) > 0 || h.n.running.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // the wake-ups that found the shards held are over
	for _, s := range h.n.shards {
		s.token.Unlock()
	}
	h.n.signal()
}

// waitFrames waits until the fabric was handed n frames: a run that
// carries on must end before the test stops the shards, or the stop
// would end it first.
func (h *runHarness) waitFrames(n int) {
	h.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		h.mu.Lock()
		got := len(h.frames)
		h.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("%d frames after 5s, want %d: %q", got, n, h.frameLines())
		}
	}
}

// checkFrames compares every frame handed to the fabric, and how many
// answer frames the node counted, with want.
func (h *runHarness) checkFrames(want []string, answerFrames uint64) {
	h.t.Helper()
	if got := h.frameLines(); fmt.Sprint(got) != fmt.Sprint(want) {
		h.t.Errorf("frames:\n got  %q\n want %q", got, want)
	}
	if got := h.n.Metrics().Get(metrics.AnswerFrames); got != answerFrames {
		h.t.Errorf("answer_frames = %d, want %d", got, answerFrames)
	}
}

// TestCommitCarriesAnswersIntoTheNextCycle: a run that answered a get
// before its store write, and whose write finds a get and a put of the
// same client queued, carries on past the write: the write's relay
// leaves at once, and its ack waits for the next cycle, whose get reply
// it shares one frame with — one answer frame per store write. The last
// write finds no mail, so its ack leaves at once, before its relay.
func TestCommitCarriesAnswersIntoTheNextCycle(t *testing.T) {
	st := newRunStore(true)
	for _, k := range []string{"c1", "c2"} {
		if err := st.Store.Put(k, 1, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	h := newRunHarness(t, st, Config{})
	stop := h.start()
	h.queueThenRun(getOf("c1", 1), entryPut1("a", 1, 2))
	<-st.entered
	h.dispatch(getOf("c2", 3), entryPut1("b", 1, 4))
	close(st.release)
	want := []string{
		"client reply c1 @0",
		"mate relay a @1",
		"client replies(ack a, reply c2) @1",
		"client ack b @2",
		"mate relay b @2",
	}
	h.waitFrames(len(want))
	stop()
	h.checkFrames(want, 3)
	if calls := st.calls(); fmt.Sprint(calls) != "[put 1 put 1]" {
		t.Errorf("store writes = %v, want one per cycle", calls)
	}
	if got := h.n.Metrics().Get(metrics.SharedAnswers); got != 2 {
		t.Errorf("shared_answers = %d, want 2", got)
	}
}

// TestPutsOnlyRunCarriesNothing: a run that answered nothing before its
// store write ends there even with mail queued on every shard, so its ack
// leaves at once, before its relay, and the next wake-up takes
// the mail — the get of the other shard included — after that one write.
func TestPutsOnlyRunCarriesNothing(t *testing.T) {
	st := newRunStore(true)
	b, c := keyOnShard("b", 0, 2), keyOnShard("c", 1, 2)
	if err := st.Store.Put(c, 1, []byte(c)); err != nil {
		t.Fatal(err)
	}
	h := newRunHarness(t, st, Config{DataShards: 2})
	stop := h.start()
	h.holdThenRun(getOf(c, 2), entryPut1(b, 1, 3))
	want := []string{
		"client ack hold @1", "mate relay hold @1",
		"client reply " + c + " @1",
		"client ack " + b + " @2",
		"mate relay " + b + " @2",
	}
	h.waitFrames(len(want))
	stop()
	h.checkFrames(want, 3)
}

// TestContinuingRunTakesIdleShardMail: producers wake nobody while a run
// is in progress, so a get queued on an idle shard during another shard's
// store write waits for that write — and no longer: the run, carrying on
// past it, takes the idle shard into its next cycle, and the get's reply
// shares the carried ack's frame. (The test holds the idle shard's token
// through the write, so no wake-up left over from the setup can take the
// get first; it lets go before the write returns.)
func TestContinuingRunTakesIdleShardMail(t *testing.T) {
	st := newRunStore(true)
	a0, c0, c1 := keyOnShard("a", 0, 2), keyOnShard("c", 0, 2), keyOnShard("c", 1, 2)
	for _, k := range []string{c0, c1} {
		if err := st.Store.Put(k, 1, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	h := newRunHarness(t, st, Config{DataShards: 2})
	stop := h.start()
	h.queueThenRun(getOf(c0, 1), entryPut1(a0, 1, 2))
	<-st.entered
	idle := h.n.shards[1]
	idle.token.Lock()
	h.dispatch(getOf(c1, 3))
	time.Sleep(20 * time.Millisecond)
	idle.token.Unlock()
	close(st.release)
	want := []string{
		"client reply " + c0 + " @0",
		"mate relay " + a0 + " @1",
		"client replies(ack " + a0 + ", reply " + c1 + ") @1",
	}
	h.waitFrames(len(want))
	stop()
	h.checkFrames(want, 2)
}

// TestStopShardsUnderLoad: StopShards returns while a producer keeps
// every shard's mailbox non-empty — each shard's last drain takes what
// its mailbox held when the stop began, not what keeps arriving — and
// every put that was acknowledged is in the store.
func TestStopShardsUnderLoad(t *testing.T) {
	st := newRunStore(false)
	h := newRunHarness(t, st, Config{DataShards: 2})
	stop := h.start()
	var halt atomic.Bool
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := uint32(1); !halt.Load(); i++ {
			put := entryPut1(fmt.Sprintf("p%d", i), 1, 2*i)
			get := getOf(fmt.Sprintf("p%d", i/2), 2*i+1)
			if !h.n.DispatchData(h.keys.sent(transport.Envelope{From: runClient, To: 1, Msg: put})) ||
				!h.n.DispatchData(h.keys.sent(transport.Envelope{From: runClient, To: 1, Msg: get})) {
				return // the node stopped
			}
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); h.n.ShardDropped() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			halt.Store(true)
			t.Fatal("the producer never filled a mailbox")
		}
	}
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		halt.Store(true)
		<-stopped
		t.Fatal("StopShards did not return within 10s under a producer keeping the mailboxes full")
	}
	<-produced

	acks := h.sentOf(isAck)
	if len(acks) == 0 {
		t.Fatal("no put was acknowledged")
	}
	for _, env := range acks {
		a := env.Msg.(*PutAck)
		if _, _, ok, _ := st.Store.Get(h.keys.of(a), a.Version); !ok {
			t.Errorf("acknowledged put %s v%d is not in the store", h.keys.of(a), a.Version)
		}
	}
}

// TestRunKeepsPerKeyOrder: a delete or a client batch between two puts
// of one key commits what was collected before it, so the store sees
// the operations in arrival order.
func TestRunKeepsPerKeyOrder(t *testing.T) {
	st := newRunStore(true)
	h := newRunHarness(t, st, Config{})
	stop := h.start()
	h.holdThenRun(
		entryPut1("k", 1, 1),
		&DeleteBatchRequest{Routing: Routing{ID: gossip.MakeRequestID(runClient, 2), NoAck: true, TTL: TTLUnset}, Items: []DeleteItem{{Key: "k", Version: 1}}},
		entryPut1("k", 2, 3),
		&PutBatchRequest{
			Routing: Routing{ID: gossip.MakeRequestID(runClient, 4), NoAck: true, TTL: TTLUnset},
			Objs:    []store.Object{{Key: "k", Version: 2, Value: []byte("late")}},
		},
	)
	stop()

	if _, _, ok, _ := st.Store.Get("k", 1); ok {
		t.Error("k v1 survived its delete: the delete ran before the collected put was stored")
	}
	if v, _, ok, _ := st.Store.Get("k", 2); !ok || string(v) != "k" {
		t.Errorf("k v2 = %q (found %v), want the put's value: the client batch overtook it", v, ok)
	}
	want := []string{"put 1", "put 1", "put 1", "batch 1"}
	if calls := st.calls(); fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("store writes = %v, want %v", calls, want)
	}
}

// TestRunSuppressesDuplicateOnce: the same request id twice in one run
// is one put.
func TestRunSuppressesDuplicateOnce(t *testing.T) {
	st := newRunStore(true)
	h := newRunHarness(t, st, Config{})
	stop := h.start()
	h.holdThenRun(entryPut1("a", 1, 1), entryPut1("a", 1, 1), entryPut1("b", 1, 2))
	stop()

	m := h.n.Metrics()
	if got := m.Get(metrics.DuplicatesSuppressed); got != 1 {
		t.Errorf("duplicates_suppressed = %d, want 1", got)
	}
	if acks := h.sentOf(isAck); len(acks) != 3 {
		t.Errorf("%d acks, want 3 (hold, a, b)", len(acks))
	}
	if calls := st.calls(); len(calls) != 2 || calls[1] != "batch 2" {
		t.Errorf("store writes = %v, want [put 1, batch 2]", calls)
	}
}

// TestRetryAfterBatchedCopyIsAcked: a mate that got an object only
// inside a batched relay knows the batch's id, not the put's. When the
// client's retry floods that put to it, the mate is a slice entry for
// it: it stores idempotently and acknowledges.
func TestRetryAfterBatchedCopyIsAcked(t *testing.T) {
	st := newRunStore(false)
	h := newRunHarness(t, st, Config{})
	ctx := context.Background()
	h.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: &PutBatchRequest{
		Routing: Routing{ID: gossip.MakeRequestID(runMate, 1), Intra: true, NoAck: true},
		Objs:    []store.Object{{Key: "a", Version: 1, Value: []byte("a")}, {Key: "b", Version: 1, Value: []byte("b")}},
	}})
	retry := entryPut1("a", 1, 1)
	retry.Flood = true
	h.n.HandleMessage(ctx, h.keys.sent(transport.Envelope{From: 5, To: 1, Msg: retry}))

	if acks := h.sentOf(isAck); len(acks) != 1 || acks[0].To != runClient {
		t.Fatalf("acks = %+v, want one to the client", acks)
	}
	if got := st.Store.Count(); got != 2 {
		t.Errorf("store holds %d objects, want 2: the retry is the object the batch brought", got)
	}
	// The window rode the retry's commit.
	if calls := st.calls(); len(calls) != 1 || calls[0] != "batch 3" {
		t.Errorf("store writes = %v, want [batch 3]", calls)
	}
}

// TestRunTakesEveryIdleShard: what two origins queue on both shards of a
// node while a run is in progress is the next run, whole — one store
// write for the puts of both shards, one reply batch per origin for the
// get replies, one for the acks, and one batched relay for the lot.
func TestRunTakesEveryIdleShard(t *testing.T) {
	st := newRunStore(true)
	a0, a1 := keyOnShard("a", 0, 2), keyOnShard("a", 1, 2)
	c0, c1 := keyOnShard("c", 0, 2), keyOnShard("c", 1, 2)
	for _, k := range []string{c0, c1} {
		if err := st.Store.Put(k, 1, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	from2 := func(m *GetRequest) *GetRequest { m.Origin = runClient2; return m }
	h := newRunHarness(t, st, Config{DataShards: 2})
	stop := h.start()
	h.holdThenRun(entryPut1(a0, 1, 1), getOf(c0, 2), from2(getOf(c0, 3)),
		entryPut1(a1, 1, 4), getOf(c1, 5), from2(getOf(c1, 6)))
	// The run ends with its relay; stopping before would drain each shard
	// on its own goroutine.
	for deadline := time.Now().Add(5 * time.Second); len(h.sentOf(isIntra)) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no relay of the run after 5s: %q", h.frameLines())
		}
	}
	stop()

	if calls := st.calls(); fmt.Sprint(calls) != "[put 1 batch 2]" {
		t.Fatalf("store writes = %v, want [put 1 batch 2]: one write for both shards' puts", calls)
	}
	h.mu.Lock()
	frames := h.frames[2:] // past the held put's ack and relay
	h.mu.Unlock()
	var got []string
	for _, f := range frames {
		kind := fmt.Sprintf("%T", f.msg)
		if r, ok := f.msg.(*Replies); ok {
			kind = fmt.Sprintf("%d×%T", len(r.Msgs), r.Msgs[0])
		}
		if b, ok := f.msg.(*PutBatchRequest); ok {
			kind = fmt.Sprintf("relay of %d", len(b.Objs))
		}
		got = append(got, fmt.Sprintf("%v %s", f.to, kind))
	}
	want := []string{
		fmt.Sprintf("%v 2×*core.GetReply", runClient),
		fmt.Sprintf("%v 2×*core.GetReply", runClient2),
		fmt.Sprintf("%v 2×*core.PutAck", runClient),
		fmt.Sprintf("%v relay of 2", runMate),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("frames after the held put:\n got  %q\n want %q", got, want)
	}
	if got := h.n.Metrics().Get(metrics.PutCommits); got != 2 {
		t.Errorf("put_commits = %d, want 2", got)
	}
}

// windowHolds reports whether the node's window holds a copy of key.
func windowHolds(n *Node, key string) bool {
	n.win.mu.Lock()
	defer n.win.mu.Unlock()
	return n.win.holds(key)
}

// waitWindowHolds waits until the node's window holds every one of keys.
func waitWindowHolds(t *testing.T, n *Node, keys ...string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		held := true
		for _, k := range keys {
			held = held && windowHolds(n, k)
		}
		if held {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the window never held all of %v", keys)
		}
	}
}

// TestSpanningRelayLandsInOwnerWindows: a mate's batched relay whose keys
// hash to both of the node's shards waits in the node's one window, with
// no store write on arrival — also when the other key's shard is held by
// another run — so a get of either key is answered after one write that
// covers both, and a delete right after it is not undone by the round's
// commit.
func TestSpanningRelayLandsInOwnerWindows(t *testing.T) {
	k0, k1 := keyOnShard("s", 0, 2), keyOnShard("s", 1, 2)

	t.Run("caller-driven", func(t *testing.T) {
		st := newRunStore(false)
		h := newRunHarness(t, st, Config{DataShards: 2})
		ctx := context.Background()
		deliver := func(from transport.NodeID, m interface{}) {
			h.n.HandleMessage(ctx, transport.Envelope{From: from, To: 1, Msg: m})
		}

		deliver(runMate, intraBatch(1, 1, k0, k1))
		if calls := st.calls(); len(calls) != 0 {
			t.Fatalf("spanning relay hit the store on arrival: %v", calls)
		}
		if !windowHolds(h.n, k0) || !windowHolds(h.n, k1) {
			t.Fatalf("window holds %s %v, %s %v; want both", k0, windowHolds(h.n, k0), k1, windowHolds(h.n, k1))
		}
		deliver(runClient, getOf(k1, 2))
		deliver(runClient, getOf(k0, 3))
		if replies := h.sentOf(isReply); len(replies) != 2 || replies[0].Msg.(*GetReply).Version != 1 || replies[1].Msg.(*GetReply).Version != 1 {
			t.Fatalf("gets of the windowed keys: replies = %+v, want version 1 of each", replies)
		}
		if calls := st.calls(); fmt.Sprint(calls) != "[batch 2]" {
			t.Fatalf("store writes = %v, want one write for both keys", calls)
		}

		deliver(runMate, intraBatch(4, 2, k0, k1))
		for i, k := range []string{k0, k1} {
			deliver(runClient, &DeleteBatchRequest{
				Routing: Routing{ID: gossip.MakeRequestID(runClient, uint32(5+i)), NoAck: true, TTL: TTLUnset},
				Items:   []DeleteItem{{Key: k, Version: 2}},
			})
		}
		h.n.Tick(ctx)
		for _, k := range []string{k0, k1} {
			if _, _, ok, _ := st.Store.Get(k, 2); ok {
				t.Errorf("%s v2 came back after its delete", k)
			}
		}
	})

	t.Run("other shard held", func(t *testing.T) {
		st := newRunStore(false)
		h := newRunHarness(t, st, Config{DataShards: 2})
		busy := h.n.shards[1]
		busy.token.Lock()
		stop := h.start()
		h.dispatch(intraBatch(1, 1, k0, k1))
		waitWindowHolds(t, h.n, k0, k1)
		busy.token.Unlock()
		if calls := st.calls(); len(calls) != 0 {
			t.Fatalf("spanning relay with a held shard hit the store on arrival: %v", calls)
		}
		stop()
		if calls := st.calls(); fmt.Sprint(calls) != "[batch 2]" {
			t.Fatalf("store writes = %v, want the stop's one commit of the window", calls)
		}
	})
}

// TestRoundCommitsTheWindowOnce: on a started 4-shard node, relay copies
// filed by runs of every shard cost one store write per round, whoever
// calls the round: no shard commits a window of its own on a timer.
func TestRoundCommitsTheWindowOnce(t *testing.T) {
	st := newRunStore(false)
	h := newRunHarness(t, st, Config{DataShards: 4})
	// A commit on a timer of the round period would fire within the test.
	h.n.cfg.RoundPeriod = 10 * time.Millisecond
	h.start()
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = keyOnShard("r", i, 4)
		h.n.DispatchData(transport.Envelope{From: runMate, To: 1, Msg: intraCopy(keys[i], 1, uint32(i+1))})
	}
	for deadline := time.Now().Add(5 * time.Second); h.n.Metrics().Get(metrics.MsgRecv) < 4 || h.n.running.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the relay copies were not all handled within 5s")
		}
	}
	h.n.Tick(context.Background())
	for deadline := time.Now().Add(5 * time.Second); st.Store.Count() < len(keys); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d of %d copies after the round", st.Store.Count(), len(keys))
		}
	}
	time.Sleep(5 * h.n.cfg.RoundPeriod)
	if got := h.n.Metrics().Get(metrics.PutCommits); got != 1 {
		t.Errorf("put_commits = %d after one round, want 1: %v", got, st.calls())
	}
	if calls := st.calls(); fmt.Sprint(calls) != "[batch 4]" {
		t.Errorf("store writes = %v, want [batch 4]", calls)
	}
}

// TestGetOfWindowedKeyWaitsForTheRunCommit: a get of a key whose put
// waits in the run's window is no commit of its own. In a run of [put a,
// get a, put b, get c] it waits for the run's one store write, and its
// reply, carrying the put's version, leaves in the acks' frame, before
// the run's one relay batch.
func TestGetOfWindowedKeyWaitsForTheRunCommit(t *testing.T) {
	st := newRunStore(true)
	if err := st.Store.Put("c", 1, []byte("c")); err != nil {
		t.Fatal(err)
	}
	h := newRunHarness(t, st, Config{})
	stop := h.start()
	h.holdThenRun(entryPut1("a", 7, 1), getOf("a", 2), entryPut1("b", 1, 3), getOf("c", 4))
	stop()

	if calls := st.calls(); fmt.Sprint(calls) != "[put 1 batch 2]" {
		t.Fatalf("store writes = %v, want [put 1 batch 2]: the held put, then the run's one commit", calls)
	}
	want := []string{
		"client ack hold @1", "mate relay hold @1",
		"client reply c @1",
		"client replies(ack a, ack b, reply a) @2",
		"mate relay [a b] @2",
	}
	if got := h.frameLines(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("frames:\n got  %q\n want %q", got, want)
	}
	for _, env := range h.sentOf(isReply) {
		if r := env.Msg.(*GetReply); h.keys.of(r) == "a" && (r.Version != 7 || string(r.Value) != "a") {
			t.Errorf("reply for a = v%d %q, want the put's v7", r.Version, r.Value)
		}
	}
	// The held put's commit, then the run's: one each.
	if got := h.n.Metrics().Get(metrics.PutCommits); got != 2 {
		t.Errorf("put_commits = %d, want 2", got)
	}
}

// intraCopy is a mate's intra-slice relay copy of one put.
func intraCopy(key string, version uint64, seq uint32) *PutRequest {
	return &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(runMate, seq), Intra: true, NoAck: true},
		Key:     key, Version: version, Value: []byte(key),
	}
}

func isGetRelay(m interface{}) bool { g, ok := m.(*GetRequest); return ok && g.Intra }

// TestWaitingGetCallerDriven: a caller-driven node runs one envelope per
// run, so a get of a windowed relay copy is answered inside the
// HandleMessage call that brought it, after the window's commit; and a
// get of a version that commit did not bring goes on to the mates.
func TestWaitingGetCallerDriven(t *testing.T) {
	st := newRunStore(false)
	h := newRunHarness(t, st, Config{})
	ctx := context.Background()
	deliver := func(from transport.NodeID, m interface{}) {
		h.n.HandleMessage(ctx, transport.Envelope{From: from, To: 1, Msg: m})
	}

	deliver(runMate, intraCopy("w", 1, 1))
	deliver(runClient, getOf("w", 2))
	if replies := h.sentOf(isReply); len(replies) != 1 || replies[0].Msg.(*GetReply).Version != 1 {
		t.Fatalf("get of a windowed copy: replies = %+v, want v1 within the call", replies)
	}
	if calls := st.calls(); fmt.Sprint(calls) != "[put 1]" {
		t.Fatalf("store writes = %v, want the window's one commit", calls)
	}

	deliver(runMate, intraCopy("x", 1, 3))
	miss := getOf("x", 4)
	miss.Version = 2
	deliver(runClient, miss)
	if calls := st.calls(); fmt.Sprint(calls) != "[put 1 put 1]" {
		t.Fatalf("store writes = %v, want the second window committed for the get", calls)
	}
	if replies := h.sentOf(isReply); len(replies) != 1 {
		t.Fatalf("get of a version nobody stored was answered: %+v", replies)
	}
	relays := h.sentOf(isGetRelay)
	if len(relays) != 1 || relays[0].To != runMate || relays[0].Msg.(*GetRequest).Version != 2 {
		t.Fatalf("get relays = %+v, want the get of x v2 passed on to the mate", relays)
	}
}

func isDeleteAck(m interface{}) bool { _, ok := m.(*DeleteBatchAck); return ok }

// deleteOf is a client's delete batch of version 1 of keys.
func deleteOf(seq uint32, keys ...string) *DeleteBatchRequest {
	items := make([]DeleteItem, len(keys))
	for i, k := range keys {
		items[i] = DeleteItem{Key: k, Version: 1}
	}
	return &DeleteBatchRequest{
		Routing: Routing{ID: gossip.MakeRequestID(runClient, seq), Origin: runClient, TTL: TTLUnset},
		Items:   items,
	}
}

// TestDeleteBatchCommitsEveryOwnerWindow: a relay copy of B, filed by a
// run of B's shard, waits in the node's window when a delete batch {A, B}
// led by A's shard arrives. The delete lands after that copy, so B v1
// stays deleted once the window is committed: caller-driven, on started
// shards, and with the window in another run's store write, which the
// delete waits for instead of deleting before it.
func TestDeleteBatchCommitsEveryOwnerWindow(t *testing.T) {
	check := func(t *testing.T, h *runHarness, a, b string) {
		t.Helper()
		for _, k := range []string{a, b} {
			if _, _, ok, _ := h.st.Store.Get(k, 1); ok {
				t.Errorf("%s v1 is stored after its delete", k)
			}
		}
		acks := h.sentOf(isDeleteAck)
		if len(acks) != 1 || acks[0].Msg.(*DeleteBatchAck).Applied != 2 {
			t.Errorf("delete acks = %+v, want one with Applied 2", acks)
		}
	}
	preload := func(t *testing.T, st *runStore, key string) {
		if err := st.Store.Put(key, 1, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("caller-driven", func(t *testing.T) {
		st := newRunStore(false)
		h := newRunHarness(t, st, Config{DataShards: 2})
		a, b := keyOnShard("a", 0, 2), keyOnShard("b", 1, 2)
		preload(t, st, a)
		ctx := context.Background()
		h.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: intraCopy(b, 1, 1)})
		h.n.HandleMessage(ctx, transport.Envelope{From: runClient, To: 1, Msg: deleteOf(2, a, b)})
		h.n.Tick(ctx)
		check(t, h, a, b)
	})

	t.Run("started", func(t *testing.T) {
		st := newRunStore(false)
		h := newRunHarness(t, st, Config{DataShards: 2})
		a, b := keyOnShard("a", 0, 2), keyOnShard("b", 1, 2)
		preload(t, st, a)
		stop := h.start()
		h.n.DispatchData(transport.Envelope{From: runMate, To: 1, Msg: intraCopy(b, 1, 1)})
		waitWindowHolds(t, h.n, b)
		h.dispatch(deleteOf(2, a, b))
		// The delete's run, not the stop's commit, must see B's copy.
		for deadline := time.Now().Add(5 * time.Second); len(h.sentOf(isDeleteAck)) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no delete ack after 5s")
			}
		}
		stop()
		check(t, h, a, b)
	})

	t.Run("owner held by another run", func(t *testing.T) {
		st := newRunStore(true)
		h := newRunHarness(t, st, Config{DataShards: 3})
		a, b, c := keyOnShard("a", 0, 3), keyOnShard("b", 1, 3), keyOnShard("c", 2, 3)
		preload(t, st, a)
		stop := h.start()
		// One run takes B's shard, filing the copy, and C's, whose put it
		// commits with the window: the run sits in that store write holding
		// both shards and the window's lock.
		sb, sc := h.n.shards[1], h.n.shards[2]
		sb.token.Lock()
		sc.token.Lock()
		h.n.DispatchData(transport.Envelope{From: runMate, To: 1, Msg: intraCopy(b, 1, 1)})
		h.dispatch(entryPut1(c, 1, 2))
		for len(h.n.wake) > 0 || h.n.running.Load() > 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(10 * time.Millisecond) // the wake-ups that found both held are over
		sb.token.Unlock()
		sc.token.Unlock()
		h.n.signal()
		<-st.entered
		if sb.token.TryLock() {
			sb.token.Unlock()
			t.Fatal("the run in the store write does not hold B's shard")
		}
		if h.n.win.mu.TryLock() {
			h.n.win.mu.Unlock()
			t.Fatal("the run in the store write does not hold the window's lock")
		}

		// A run in progress wakes nobody for what is queued meanwhile; a
		// full run would, so another goroutine takes the delete at once.
		h.dispatch(deleteOf(3, a, b))
		h.n.signal()
		for h.n.ShardDepth(0) > 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		if _, _, ok, _ := st.Store.Get(a, 1); !ok {
			t.Error("the delete went ahead during the store write of B's copy")
		}
		close(st.release)
		stop()
		check(t, h, a, b)
		if calls := st.calls(); fmt.Sprint(calls) != "[batch 2]" {
			t.Errorf("store writes = %v, want B's copy with C's put, before the delete", calls)
		}
	})
}
