package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
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
				if ack, ok := m.(*PutAck); ok && !st.holds(ack.Key, ack.Version) {
					t.Errorf("PutAck for %s v%d left before the store held it", ack.Key, ack.Version)
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
	return stop
}

func (h *runHarness) dispatch(msgs ...interface{}) {
	h.t.Helper()
	for _, m := range msgs {
		if !h.n.DispatchData(transport.Envelope{From: runClient, To: 1, Msg: m}) {
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
	relay := func(seq uint32, keys ...string) *PutBatchRequest {
		objs := make([]store.Object, len(keys))
		for i, k := range keys {
			objs[i] = store.Object{Key: k, Version: 1, Value: []byte(k)}
		}
		return &PutBatchRequest{Routing: Routing{ID: gossip.MakeRequestID(runMate, seq), Intra: true, NoAck: true}, Objs: objs}
	}
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

	// A mate sharded differently can mix keys of two of our shards in one
	// batch; a get for the second key would look in the wrong window, so
	// such a batch is stored on arrival.
	st2 := newRunStore(false)
	h2 := newRunHarness(t, st2, Config{DataShards: 2})
	k0, k1 := "", ""
	for i := 0; k0 == "" || k1 == ""; i++ {
		k := fmt.Sprintf("s%d", i)
		if shardIndex(k, 2) == 0 {
			k0 = k
		} else {
			k1 = k
		}
	}
	h2.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: relay(3, k0, k1)})
	if calls := st2.calls(); len(calls) != 1 || calls[0] != "batch 2" {
		t.Fatalf("mixed-shard intra batch: store writes = %v, want [batch 2] on arrival", calls)
	}
}

// TestGetCommitsOnlyForItsOwnKey: inside a run a get of a key with a
// collected put sees that put (the commit comes first), and a get of
// any other key is served before the run's store write; a window of
// relay copies is only flushed by a get of one of its keys.
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
			order = append(order, "ack "+m.Key)
		case *GetReply:
			order = append(order, "reply "+m.Key+"="+string(m.Value))
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
		acked[env.Msg.(*PutAck).Key] = true
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
// reply batch lists its answers.
func describe(msg interface{}) string {
	switch m := msg.(type) {
	case *Replies:
		parts := make([]string, len(m.Msgs))
		for i, a := range m.Msgs {
			parts[i] = describe(a)
		}
		return "replies(" + strings.Join(parts, ", ") + ")"
	case *PutAck:
		return "ack " + m.Key
	case *GetReply:
		return "reply " + m.Key
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
		out[i] = fmt.Sprintf("%s %s @%d", names[f.to], describe(f.msg), f.writes)
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

// TestRunKeepsPerKeyOrder: a delete or a client batch between two puts
// of one key commits what was collected before it, so the store sees
// the operations in arrival order.
func TestRunKeepsPerKeyOrder(t *testing.T) {
	st := newRunStore(true)
	h := newRunHarness(t, st, Config{})
	stop := h.start()
	h.holdThenRun(
		entryPut1("k", 1, 1),
		&DeleteRequest{Routing: Routing{ID: gossip.MakeRequestID(runClient, 2), NoAck: true, TTL: TTLUnset}, Key: "k", Version: 1},
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
	h.n.HandleMessage(ctx, transport.Envelope{From: 5, To: 1, Msg: retry})

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
