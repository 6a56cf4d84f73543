package core

import (
	"context"
	"fmt"
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
	valueMax int // a larger value is refused, as the log engine refuses an oversized record

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

func (r *runStore) refuses(value []byte) bool { return r.valueMax > 0 && len(value) > r.valueMax }

func (r *runStore) Put(key string, version uint64, value []byte) error {
	r.enter("put 1")
	if r.refuses(value) {
		return store.ErrValueTooLarge
	}
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
	for _, o := range objs {
		if r.refuses(o.Value) {
			return store.ErrValueTooLarge
		}
	}
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

// runHarness is a single-slice node with one mate on externally-run
// shards (one shard, so every key shares a mailbox), a recording store
// and a recording fabric that checks, at the moment a PutAck leaves,
// that the store already returned for its object.
type runHarness struct {
	t  *testing.T
	n  *Node
	st *runStore

	mu   sync.Mutex
	sent []transport.Envelope
}

func newRunHarness(t *testing.T, st *runStore, cfg Config) *runHarness {
	t.Helper()
	h := &runHarness{t: t, st: st}
	cfg.Slices, cfg.Slicer, cfg.AntiEntropyEvery, cfg.Seed = 1, SlicerStatic, -1, 7
	cfg.RoundPeriod = time.Hour // no tick commits behind the test's back
	h.n = NewNode(1, cfg, st, transport.SenderFunc(
		func(_ context.Context, to transport.NodeID, msg interface{}) error {
			if ack, ok := msg.(*PutAck); ok && !st.holds(ack.Key, ack.Version) {
				t.Errorf("PutAck for %s v%d left before the store held it", ack.Key, ack.Version)
			}
			h.mu.Lock()
			h.sent = append(h.sent, transport.Envelope{From: 1, To: to, Msg: msg})
			h.mu.Unlock()
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
// PutBatch at the tick or at CoalesceMax.
func TestIntraBatchRidesTheWindow(t *testing.T) {
	relay := func(seq uint32, keys ...string) *PutBatchRequest {
		objs := make([]store.Object, len(keys))
		for i, k := range keys {
			objs[i] = store.Object{Key: k, Version: 1, Value: []byte(k)}
		}
		return &PutBatchRequest{Routing: Routing{ID: gossip.MakeRequestID(runMate, seq), Intra: true, NoAck: true}, Objs: objs}
	}
	ctx := context.Background()

	st := newRunStore(false)
	h := newRunHarness(t, st, Config{CoalesceMax: 4})
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
	// CoalesceMax objects in the window commit without waiting for a tick.
	h.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: relay(2, "d", "e", "f")})
	h.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: relay(3, "g", "h")})
	if calls := st.calls(); len(calls) != 2 || calls[1] != "batch 4" {
		t.Fatalf("at CoalesceMax store writes = %v, want a second [batch 4]", calls)
	}
	// A batch that would fill the window by itself (a client's batch on
	// its intra phase) is a commit of its own, behind what was waiting.
	h.n.HandleMessage(ctx, transport.Envelope{From: runMate, To: 1, Msg: relay(4, "i", "j", "k", "l")})
	if calls := st.calls(); len(calls) != 4 || calls[2] != "put 1" || calls[3] != "batch 4" {
		t.Fatalf("window-sized batch: store writes = %v, want [... put 1, batch 4]", calls)
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

// TestRunWithOneRefusedPut: a value the store refuses fails the run's
// batch; the commit degrades to single puts, acks what stored and not
// the refused put, and still relays all of them (mates may succeed).
func TestRunWithOneRefusedPut(t *testing.T) {
	st := newRunStore(true)
	st.valueMax = 16
	h := newRunHarness(t, st, Config{})
	stop := h.start()
	big := entryPut1("big", 1, 2)
	big.Value = make([]byte, 17)
	h.holdThenRun(entryPut1("a", 1, 1), big, entryPut1("b", 1, 3))
	stop()

	acked := map[string]bool{}
	for _, env := range h.sentOf(isAck) {
		acked[env.Msg.(*PutAck).Key] = true
	}
	if !acked["a"] || !acked["b"] || acked["big"] || len(acked) != 3 {
		t.Fatalf("acked = %v, want hold, a and b", acked)
	}
	if got := h.n.Metrics().Get(metrics.PutsServed); got != 3 {
		t.Errorf("puts_served = %d, want 3", got)
	}
	relays := h.sentOf(isIntra)
	if len(relays) != 2 || len(relays[1].Msg.(*PutBatchRequest).Objs) != 3 {
		t.Fatalf("relays = %+v, want the held put and one batch of 3", relays)
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
