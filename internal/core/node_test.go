package core

import (
	"context"
	"fmt"
	"testing"

	"dataflasks/internal/gossip"
	"dataflasks/internal/metrics"
	"dataflasks/internal/pss"
	"dataflasks/internal/sim"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// pssDescriptor shortens test literals.
type pssDescriptor = pss.Descriptor

// capture collects a node's outbound traffic.
type capture struct {
	sent []transport.Envelope
}

func (c *capture) sender(from transport.NodeID) transport.Sender {
	return transport.SenderFunc(func(_ context.Context, to transport.NodeID, msg interface{}) error {
		c.sent = append(c.sent, transport.Envelope{From: from, To: to, Msg: msg})
		return nil
	})
}

func (c *capture) byType(pick func(interface{}) bool) []transport.Envelope {
	var out []transport.Envelope
	for _, env := range c.sent {
		if pick(env.Msg) {
			out = append(out, env)
		}
	}
	return out
}

// staticNode builds a node pinned to a slice via the static slicer so
// routing tests are deterministic and convergence-free.
func staticNode(t *testing.T, id transport.NodeID, k int) (*Node, *capture) {
	t.Helper()
	cap := &capture{}
	n := NewNode(id, Config{
		Slices:           k,
		Slicer:           SlicerStatic,
		SystemSize:       100,
		AntiEntropyEvery: -1,
		Seed:             1,
	}, store.NewMemory(), cap.sender(id))
	return n, cap
}

// findNodeInSlice scans ids until the static slicer puts one in the
// wanted slice.
func findNodeInSlice(t *testing.T, want int32, k int) transport.NodeID {
	t.Helper()
	for id := transport.NodeID(1); id < 10000; id++ {
		if slicing.NewStaticSlicer(id, k).Slice() == want {
			return id
		}
	}
	t.Fatal("no node found for slice")
	return 0
}

// keyForSlice finds a key owned by the wanted slice.
func keyForSlice(t *testing.T, want int32, k int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("key%06d", i)
		if slicing.KeySlice(key, k) == want {
			return key
		}
	}
	t.Fatal("no key found")
	return ""
}

func TestNodeStoresAndAcksInSlicePut(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, cap := staticNode(t, id, k)
	key := keyForSlice(t, 2, k)

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 1), Origin: 0xC0000001, TTL: TTLUnset},
		Key:     key, Version: 1, Value: []byte("v"),
	}})

	if _, _, ok, _ := n.Store().Get(key, 1); !ok {
		t.Fatal("in-slice put not stored")
	}
	acks := cap.byType(func(m interface{}) bool { _, ok := m.(*PutAck); return ok })
	if len(acks) != 1 || acks[0].To != 0xC0000001 {
		t.Fatalf("acks = %+v", acks)
	}
	if n.Metrics().Get(metrics.PutsServed) != 1 {
		t.Error("PutsServed not counted")
	}
}

// failingStore wraps a store whose Put always fails, as a full disk or
// closed engine would.
type failingStore struct {
	store.Store
}

func (f *failingStore) Put(string, uint64, []byte) error {
	return fmt.Errorf("store: disk full")
}

// TestNodeNoAckWhenStoreFails pins the durability contract: a node
// whose local Put failed must not acknowledge the write — an acked put
// that was never stored would let the client count a phantom replica.
func TestNodeNoAckWhenStoreFails(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	cap := &capture{}
	n := NewNode(id, Config{
		Slices:           k,
		Slicer:           SlicerStatic,
		SystemSize:       100,
		AntiEntropyEvery: -1,
		Seed:             1,
	}, &failingStore{Store: store.NewMemory()}, cap.sender(id))
	key := keyForSlice(t, 2, k)

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 1), Origin: 0xC0000001, TTL: TTLUnset},
		Key:     key, Version: 1, Value: []byte("v"),
	}})

	if acks := cap.byType(func(m interface{}) bool { _, ok := m.(*PutAck); return ok }); len(acks) != 0 {
		t.Fatalf("failed store Put was acknowledged: %+v", acks)
	}
	if n.Metrics().Get(metrics.PutsServed) != 0 {
		t.Error("failed put counted as served")
	}
}

func TestNodeIntraPutStoresWithoutAck(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, cap := staticNode(t, id, k)
	key := keyForSlice(t, 2, k)

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 1), Origin: 0xC0000001, TTL: 4, Intra: true},
		Key:     key, Version: 1, Value: []byte("v"),
	}})

	// Intra copies ride the accumulation window; the next tick flushes
	// them as one batch append.
	n.Tick(context.Background())
	if _, _, ok, _ := n.Store().Get(key, 1); !ok {
		t.Fatal("intra put not stored after tick")
	}
	if acks := cap.byType(func(m interface{}) bool { _, ok := m.(*PutAck); return ok }); len(acks) != 0 {
		t.Fatalf("intra-phase copy acked: %+v", acks)
	}
	if n.Metrics().Get(metrics.CoalescedPuts) != 1 {
		t.Errorf("CoalescedPuts = %d, want 1", n.Metrics().Get(metrics.CoalescedPuts))
	}
}

// TestNodeCoalescedPutVisibleToGet pins read-your-relayed-writes: a get
// arriving between an intra put and the next tick must flush the
// accumulation window, not miss the object.
func TestNodeCoalescedPutVisibleToGet(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, cap := staticNode(t, id, k)
	key := keyForSlice(t, 2, k)

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 1), Origin: 0xC0000001, TTL: 4, Intra: true},
		Key:     key, Version: 1, Value: []byte("v"),
	}})
	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &GetRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 2), Origin: 0xC0000001, TTL: TTLUnset},
		Key:     key, Version: 1,
	}})

	replies := cap.byType(func(m interface{}) bool { _, ok := m.(*GetReply); return ok })
	if len(replies) != 1 || string(replies[0].Msg.(*GetReply).Value) != "v" {
		t.Fatalf("get did not observe the coalesced put: %+v", replies)
	}
}

// TestNodeCoalesceWindowDedupsAndCapFlushes drives coalesceMax+1 intra
// puts (distinct request ids, one duplicated object) and checks the cap
// flush plus in-buffer dedup.
func TestNodeCoalesceWindowDedupsAndCapFlushes(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	cap := &capture{}
	n := NewNode(id, Config{
		Slices:           k,
		Slicer:           SlicerStatic,
		SystemSize:       100,
		AntiEntropyEvery: -1,
		Seed:             1,
	}, store.NewMemory(), cap.sender(id))
	key := keyForSlice(t, 2, k)

	send := func(seq uint32, version uint64) {
		n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
			Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, seq), TTL: 2, Intra: true},
			Key:     key, Version: version, Value: []byte("v"),
		}})
	}
	send(1, 1)
	send(2, 1) // same object under a fresh id (a client retry): deduped
	for v := uint64(2); v < coalesceMax; v++ {
		send(uint32(v+1), v)
	}
	if n.Store().Count() != 0 {
		t.Fatalf("buffer flushed early: %d objects stored", n.Store().Count())
	}
	send(coalesceMax+1, coalesceMax) // hits coalesceMax → flush without waiting for a tick
	if got := n.Store().Count(); got != coalesceMax {
		t.Fatalf("stored %d objects after cap flush, want %d", got, coalesceMax)
	}
	if got := n.Metrics().Get(metrics.CoalescedPuts); got != coalesceMax {
		t.Errorf("CoalescedPuts = %d, want %d", got, coalesceMax)
	}
}

func TestNodeAppliesBatchViaOnePutBatch(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	cap := &capture{}
	cs := &countingStore{Store: store.NewMemory()}
	n := NewNode(id, Config{
		Slices:           k,
		Slicer:           SlicerStatic,
		SystemSize:       100,
		AntiEntropyEvery: -1,
		Seed:             1,
	}, cs, cap.sender(id))

	objs := make([]store.Object, 0, 3)
	for i := 0; len(objs) < 3; i++ {
		key := fmt.Sprintf("batch%06d", i)
		if slicing.KeySlice(key, k) == 2 {
			objs = append(objs, store.Object{Key: key, Version: 1, Value: []byte("v")})
		}
	}
	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutBatchRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 1), Origin: 0xC0000001, TTL: TTLUnset},
		Objs:    objs,
	}})

	if cs.batchCalls != 1 || cs.putCalls != 0 {
		t.Fatalf("batch applied via %d PutBatch / %d Put calls, want 1 / 0", cs.batchCalls, cs.putCalls)
	}
	if n.Store().Count() != len(objs) {
		t.Fatalf("stored %d of %d batch objects", n.Store().Count(), len(objs))
	}
	acks := cap.byType(func(m interface{}) bool { _, ok := m.(*PutBatchAck); return ok })
	if len(acks) != 1 || acks[0].To != 0xC0000001 || acks[0].Msg.(*PutBatchAck).Stored != len(objs) {
		t.Fatalf("batch acks = %+v", acks)
	}
	if n.Metrics().Get(metrics.PutsServed) != uint64(len(objs)) {
		t.Errorf("PutsServed = %d", n.Metrics().Get(metrics.PutsServed))
	}

	// A duplicate delivery must not re-apply the batch.
	n.HandleMessage(context.Background(), transport.Envelope{From: 78, To: id, Msg: &PutBatchRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 1), Origin: 0xC0000001, TTL: TTLUnset},
		Objs:    objs,
	}})
	if cs.batchCalls != 1 {
		t.Fatalf("duplicate batch re-applied: %d PutBatch calls", cs.batchCalls)
	}
}

// countingStore counts write-path entry points.
type countingStore struct {
	store.Store
	putCalls   int
	batchCalls int
}

func (c *countingStore) Put(key string, version uint64, value []byte) error {
	c.putCalls++
	return c.Store.Put(key, version, value)
}

func (c *countingStore) PutBatch(objs []store.Object) error {
	c.batchCalls++
	return c.Store.PutBatch(objs)
}

func TestNodeRelaysForeignSliceBatch(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 1, k)
	n, cap := staticNode(t, id, k)
	n.Bootstrap([]transport.NodeID{500, 501, 502})
	key := keyForSlice(t, 3, k) // not ours

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutBatchRequest{
		Routing: Routing{ID: gossip.MakeRequestID(1, 1), TTL: TTLUnset},
		Objs:    []store.Object{{Key: key, Version: 1, Value: []byte("v")}},
	}})
	if n.Store().Count() != 0 {
		t.Fatal("node stored a foreign-slice batch")
	}
	relays := cap.byType(func(m interface{}) bool { _, ok := m.(*PutBatchRequest); return ok })
	if len(relays) == 0 {
		t.Fatal("foreign batch not relayed")
	}
	fwd := relays[0].Msg.(*PutBatchRequest)
	if fwd.TTL == TTLUnset || fwd.TTL == 0 || fwd.Intra {
		t.Errorf("forwarded batch TTL=%d intra=%v", fwd.TTL, fwd.Intra)
	}
}

func TestNodeDeletesAndAcks(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, cap := staticNode(t, id, k)
	key := keyForSlice(t, 2, k)
	_ = n.Store().Put(key, 1, []byte("old"))
	_ = n.Store().Put(key, 9, []byte("new"))

	// Latest resolves to the newest stored version on this replica.
	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &DeleteBatchRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 1), Origin: 0xC0000001, TTL: TTLUnset},
		Items:   []DeleteItem{{Key: key, Version: store.Latest}},
	}})

	if _, _, ok, _ := n.Store().Get(key, 9); ok {
		t.Fatal("latest version survived the delete")
	}
	if _, _, ok, _ := n.Store().Get(key, 1); !ok {
		t.Fatal("delete removed more than the latest version")
	}
	acks := cap.byType(func(m interface{}) bool { _, ok := m.(*DeleteBatchAck); return ok })
	if len(acks) != 1 || acks[0].To != 0xC0000001 || acks[0].Msg.(*DeleteBatchAck).Applied != 1 {
		t.Fatalf("delete acks = %+v", acks)
	}
	if n.Metrics().Get(metrics.DeletesServed) != 1 {
		t.Error("DeletesServed not counted")
	}
}

// TestNodeDeleteFlushesCoalescedPut pins ordering: an intra relay put
// buffered in the accumulation window must be applied before a delete
// for the same key, or the later flush would resurrect the object.
func TestNodeDeleteFlushesCoalescedPut(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, _ := staticNode(t, id, k)
	key := keyForSlice(t, 2, k)

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 1), TTL: 2, Intra: true},
		Key:     key, Version: 3, Value: []byte("v"),
	}})
	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &DeleteBatchRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 2), Origin: 0xC0000001, TTL: TTLUnset},
		Items:   []DeleteItem{{Key: key, Version: 3}},
	}})
	n.Tick(context.Background())
	if _, _, ok, _ := n.Store().Get(key, 3); ok {
		t.Fatal("coalesced put resurrected a deleted object")
	}
}

func TestNodeRelaysForeignSliceDelete(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 1, k)
	n, cap := staticNode(t, id, k)
	n.Bootstrap([]transport.NodeID{500, 501})
	key := keyForSlice(t, 3, k)
	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &DeleteBatchRequest{
		Routing: Routing{ID: gossip.MakeRequestID(1, 1), TTL: TTLUnset},
		Items:   []DeleteItem{{Key: key, Version: 1}},
	}})
	relays := cap.byType(func(m interface{}) bool { _, ok := m.(*DeleteBatchRequest); return ok })
	if len(relays) == 0 {
		t.Fatal("foreign delete not relayed")
	}
	if acks := cap.byType(func(m interface{}) bool { _, ok := m.(*DeleteBatchAck); return ok }); len(acks) != 0 {
		t.Fatal("off-slice node acked a delete")
	}
}

func TestNodeNoAckSuppressed(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, cap := staticNode(t, id, k)
	key := keyForSlice(t, 2, k)
	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(1, 1), Origin: 0xC0000001, TTL: TTLUnset, NoAck: true},
		Key:     key, Version: 1,
	}})
	if acks := cap.byType(func(m interface{}) bool { _, ok := m.(*PutAck); return ok }); len(acks) != 0 {
		t.Fatal("NoAck put acked")
	}
}

func TestNodeRelaysForeignSlicePut(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 1, k)
	n, cap := staticNode(t, id, k)
	// Give the node some view so it has relay targets.
	seeds := make([]transport.NodeID, 0, 8)
	for s := transport.NodeID(500); s < 508; s++ {
		seeds = append(seeds, s)
	}
	n.Bootstrap(seeds)
	key := keyForSlice(t, 3, k) // not ours

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(1, 1), TTL: TTLUnset},
		Key:     key, Version: 1,
	}})

	if _, _, ok, _ := n.Store().Get(key, 1); ok {
		t.Fatal("node stored a foreign-slice object")
	}
	relays := cap.byType(func(m interface{}) bool { _, ok := m.(*PutRequest); return ok })
	if len(relays) == 0 {
		t.Fatal("foreign put not relayed")
	}
	fwd := relays[0].Msg.(*PutRequest)
	if fwd.TTL == TTLUnset || fwd.TTL == 0 {
		t.Errorf("forwarded TTL = %d, want stamped and decremented", fwd.TTL)
	}
	if fwd.Intra {
		t.Error("global relay marked intra")
	}
}

func TestNodeServesGetAndReportsSlice(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, cap := staticNode(t, id, k)
	key := keyForSlice(t, 2, k)
	_ = n.Store().Put(key, 3, []byte("served"))

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &GetRequest{
		Routing: Routing{ID: gossip.MakeRequestID(1, 1), Origin: 0xC0000001, TTL: TTLUnset},
		Key:     key, Version: 3,
	}})

	replies := cap.byType(func(m interface{}) bool { _, ok := m.(*GetReply); return ok })
	if len(replies) != 1 {
		t.Fatalf("replies = %+v", cap.sent)
	}
	rep := replies[0].Msg.(*GetReply)
	if string(rep.Value) != "served" || rep.Version != 3 || rep.Slice != 2 {
		t.Errorf("reply = %+v", rep)
	}
	if replies[0].To != 0xC0000001 {
		t.Errorf("reply sent to %v", replies[0].To)
	}
	if n.Metrics().Get(metrics.GetsServed) != 1 {
		t.Error("GetsServed not counted")
	}
}

func TestNodeGetLatestVersion(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, cap := staticNode(t, id, k)
	key := keyForSlice(t, 2, k)
	_ = n.Store().Put(key, 1, []byte("old"))
	_ = n.Store().Put(key, 9, []byte("new"))

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &GetRequest{
		Routing: Routing{ID: gossip.MakeRequestID(1, 2), Origin: 0xC0000001, TTL: TTLUnset},
		Key:     key, Version: store.Latest,
	}})
	replies := cap.byType(func(m interface{}) bool { _, ok := m.(*GetReply); return ok })
	if len(replies) != 1 || replies[0].Msg.(*GetReply).Version != 9 {
		t.Fatalf("latest reply = %+v", replies)
	}
}

func TestNodeAbsentObjectKeepsRequestAlive(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, cap := staticNode(t, id, k)
	key := keyForSlice(t, 2, k)

	// No intra view yet → nothing to relay to, but critically: no
	// reply must be sent (a replica without the object stays silent).
	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &GetRequest{
		Routing: Routing{ID: gossip.MakeRequestID(1, 3), Origin: 0xC0000001, TTL: TTLUnset},
		Key:     key, Version: 1,
	}})
	if replies := cap.byType(func(m interface{}) bool { _, ok := m.(*GetReply); return ok }); len(replies) != 0 {
		t.Fatal("replica without object replied")
	}
}

func TestNodeMateQueryAnswersWithSelf(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, cap := staticNode(t, id, k)

	n.HandleMessage(context.Background(), transport.Envelope{From: 88, To: id, Msg: &MateQuery{Slice: 2}})
	replies := cap.byType(func(m interface{}) bool { _, ok := m.(*MateReply); return ok })
	if len(replies) != 1 {
		t.Fatalf("mate replies = %+v", cap.sent)
	}
	mates := replies[0].Msg.(*MateReply).Mates
	found := false
	for _, d := range mates {
		if d.ID == id && d.Slice == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("reply lacks self descriptor: %+v", mates)
	}
}

// TestNodeMateQuerySelfDescriptorCarriesAddr: the replier's own
// descriptor is the one entry no gossip stamped, so it must carry the
// advertised address itself — a querier that learns the replier only
// from this reply could not dial it otherwise.
func TestNodeMateQuerySelfDescriptorCarriesAddr(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	cap := &capture{}
	n := NewNode(id, Config{
		Slices: k, Slicer: SlicerStatic, SystemSize: 100, AntiEntropyEvery: -1, Seed: 1,
		AdvertiseAddr: "10.0.0.7:7000",
	}, store.NewMemory(), cap.sender(id))

	n.HandleMessage(context.Background(), transport.Envelope{From: 88, To: id, Msg: &MateQuery{Slice: 2}})
	replies := cap.byType(func(m interface{}) bool { _, ok := m.(*MateReply); return ok })
	if len(replies) != 1 {
		t.Fatalf("mate replies = %+v", cap.sent)
	}
	for _, d := range replies[0].Msg.(*MateReply).Mates {
		if d.ID == id {
			if d.Addr != "10.0.0.7:7000" {
				t.Errorf("self descriptor Addr = %q, want the advertised address", d.Addr)
			}
			return
		}
	}
	t.Error("reply lacks the self descriptor")
}

func TestNodeMateQueryForeignSliceSilentWhenUnknown(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, cap := staticNode(t, id, k)
	n.HandleMessage(context.Background(), transport.Envelope{From: 88, To: id, Msg: &MateQuery{Slice: 3}})
	if len(cap.sent) != 0 {
		t.Fatalf("replied without knowing any slice-3 node: %+v", cap.sent)
	}
}

func TestNodeMateReplyFillsIntraView(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	n, _ := staticNode(t, id, k)
	mate := findNodeInSlice(t, 2, k)
	if mate == id {
		mate = findNextNodeInSlice(t, 2, k, id)
	}
	n.HandleMessage(context.Background(), transport.Envelope{From: 99, To: id, Msg: &MateReply{
		Slice: 2,
		Mates: []pssDescriptor{{ID: mate, Slice: 2}},
	}})
	if n.IntraViewSize() != 1 {
		t.Fatalf("intra view = %d after mate reply", n.IntraViewSize())
	}
	// A reply for a slice we are not in is ignored.
	other := findNodeInSlice(t, 3, k)
	n.HandleMessage(context.Background(), transport.Envelope{From: 99, To: id, Msg: &MateReply{
		Slice: 3,
		Mates: []pssDescriptor{{ID: other, Slice: 3}},
	}})
	if n.IntraViewSize() != 1 {
		t.Fatal("foreign-slice mate reply polluted intra view")
	}
}

func TestDedupSampleMatesRemovesDuplicates(t *testing.T) {
	rng := sim.RNG(3, 3)
	// The same mate known via the intra view and the PSS view must use
	// one reply slot, not two.
	mates := []pssDescriptor{
		{ID: 1, Slice: 2}, {ID: 2, Slice: 2}, {ID: 1, Slice: 2}, {ID: 3, Slice: 2}, {ID: 2, Slice: 2},
	}
	got := dedupSampleMates(mates, 16, rng)
	if len(got) != 3 {
		t.Fatalf("dedup kept %d descriptors, want 3: %+v", len(got), got)
	}
	seen := map[transport.NodeID]bool{}
	for _, d := range got {
		if seen[d.ID] {
			t.Fatalf("duplicate ID %v survived dedup", d.ID)
		}
		seen[d.ID] = true
	}
}

// TestDedupSampleMatesUniform pins the truncation fix: mates[:16] used
// to always favor the head of the candidate list (the responder's own
// view), starving candidates appended later (the PSS view). A uniform
// sample must regularly include tail candidates.
func TestDedupSampleMatesUniform(t *testing.T) {
	const candidates, max = 40, 16
	tailPicks := 0
	for trial := 0; trial < 50; trial++ {
		rng := sim.RNG(uint64(trial), 7)
		mates := make([]pssDescriptor, candidates)
		for i := range mates {
			mates[i] = pssDescriptor{ID: transport.NodeID(i + 1), Slice: 2}
		}
		got := dedupSampleMates(mates, max, rng)
		if len(got) != max {
			t.Fatalf("sampled %d, want %d", len(got), max)
		}
		seen := map[transport.NodeID]bool{}
		for _, d := range got {
			if seen[d.ID] {
				t.Fatalf("duplicate ID %v in sample", d.ID)
			}
			seen[d.ID] = true
			if d.ID > candidates-10 { // one of the 10 tail ("PSS-sourced") candidates
				tailPicks++
			}
		}
	}
	// E[tail picks] = 50 trials * 10 tail * 16/40 = 200; zero means the
	// old head-biased truncation is back.
	if tailPicks < 50 {
		t.Fatalf("tail candidates picked %d times over 50 trials; sampling is not uniform", tailPicks)
	}
}

func findNextNodeInSlice(t *testing.T, want int32, k int, after transport.NodeID) transport.NodeID {
	t.Helper()
	for id := after + 1; id < after+10000; id++ {
		if slicing.NewStaticSlicer(id, k).Slice() == want {
			return id
		}
	}
	t.Fatal("no second node found")
	return 0
}

func TestNodeTickCountsRounds(t *testing.T) {
	n, _ := staticNode(t, 1, 4)
	n.Tick(context.Background())
	n.Tick(context.Background())
	if n.Round() != 2 {
		t.Errorf("Round = %d", n.Round())
	}
}

func TestNodeMetricsCountTraffic(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 1, k)
	n, _ := staticNode(t, id, k)
	n.Bootstrap([]transport.NodeID{500, 501, 502})
	key := keyForSlice(t, 3, k)
	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(1, 1), TTL: TTLUnset},
		Key:     key, Version: 1,
	}})
	m := n.Metrics()
	if m.Get(metrics.MsgRecv) != 1 {
		t.Errorf("MsgRecv = %d", m.Get(metrics.MsgRecv))
	}
	if m.Get(metrics.MsgSent) == 0 || m.Get(metrics.DataSent) == 0 {
		t.Errorf("sends not counted: sent=%d data=%d", m.Get(metrics.MsgSent), m.Get(metrics.DataSent))
	}
	if m.Get(metrics.RequestsRelayed) != 1 {
		t.Errorf("RequestsRelayed = %d", m.Get(metrics.RequestsRelayed))
	}
}

func TestNodeIgnoresUnknownMessages(t *testing.T) {
	n, cap := staticNode(t, 1, 4)
	n.HandleMessage(context.Background(), transport.Envelope{From: 2, To: 1, Msg: "mystery"})
	n.HandleMessage(context.Background(), transport.Envelope{From: 2, To: 1, Msg: &PutAck{}})
	n.HandleMessage(context.Background(), transport.Envelope{From: 2, To: 1, Msg: &GetReply{}})
	if len(cap.sent) != 0 {
		t.Fatal("unknown messages triggered traffic")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Slices != 10 || cfg.Slicer != SlicerRank {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.AntiEntropyEvery != 10 {
		t.Errorf("AntiEntropyEvery default = %d", cfg.AntiEntropyEvery)
	}
	disabled := Config{AntiEntropyEvery: -1}.withDefaults()
	if disabled.AntiEntropyEvery != 0 {
		t.Errorf("AntiEntropyEvery -1 → %d, want 0 (disabled)", disabled.AntiEntropyEvery)
	}
}
