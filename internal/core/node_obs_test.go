package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dataflasks/internal/antientropy"
	"dataflasks/internal/gossip"
	"dataflasks/internal/metrics"
	"dataflasks/internal/obs"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// TestStoredObjectsGaugeInitializedFromStore pins the -restore
// regression: StartNode replays snapshots into the store BEFORE the
// core exists, so the gauge must be seeded from the store at
// construction — not stay zero until the first tick.
func TestStoredObjectsGaugeInitializedFromStore(t *testing.T) {
	st := store.NewMemory()
	for _, k := range []string{"a", "b", "c"} {
		if err := st.Put(k, 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cap := &capture{}
	n := NewNode(9, Config{
		Slices: 4, Slicer: SlicerStatic, SystemSize: 100,
		AntiEntropyEvery: -1, Seed: 1,
	}, st, cap.sender(9))
	if got := n.Metrics().Get(metrics.StoredObjects); got != 3 {
		t.Fatalf("stored_objects gauge = %d before any tick, want 3 (restored objects invisible)", got)
	}
}

// keysForSlice finds n distinct keys owned by the wanted slice.
func keysForSlice(t *testing.T, want int32, k, n int) []string {
	t.Helper()
	var keys []string
	for i := 0; i < 100000 && len(keys) < n; i++ {
		key := fmt.Sprintf("obskey%06d", i)
		if slicing.KeySlice(key, k) == want {
			keys = append(keys, key)
		}
	}
	if len(keys) < n {
		t.Fatal("not enough keys found")
	}
	return keys
}

// TestStoredObjectsGaugeAfterRepairPush pins the other staleness path:
// anti-entropy pushes ingest objects between ticks, and the gauge must
// follow immediately rather than waiting for the next round.
func TestStoredObjectsGaugeAfterRepairPush(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	cap := &capture{}
	n := NewNode(id, Config{
		Slices: k, Slicer: SlicerStatic, SystemSize: 100,
		AntiEntropyEvery: 10, Seed: 1,
	}, store.NewMemory(), cap.sender(id))

	keys := keysForSlice(t, 2, k, 2)
	key1, key2 := keys[0], keys[1]
	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &antientropy.Push{
		Objects: []store.Object{
			{Key: key1, Version: 1, Value: []byte("v1")},
			{Key: key2, Version: 1, Value: []byte("v2")},
		},
	}})
	if got := n.Metrics().Get(metrics.StoredObjects); got != uint64(n.Store().Count()) || got == 0 {
		t.Fatalf("stored_objects gauge = %d after repair push, store holds %d", got, n.Store().Count())
	}
}

// TestTracedPutJournalsLifecycle: a traced put must land in the node's
// /trace ring with its trace id and key; an untraced one must not.
func TestTracedPutJournalsLifecycle(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	ring := obs.NewRing(64)
	cap := &capture{}
	n := NewNode(id, Config{
		Slices: k, Slicer: SlicerStatic, SystemSize: 100,
		AntiEntropyEvery: -1, Seed: 1, Trace: ring,
	}, store.NewMemory(), cap.sender(id))
	key := keyForSlice(t, 2, k)

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 1), Origin: 0xC0000001, TTL: TTLUnset},
		Key:     key, Version: 1, Value: []byte("v"),
	}})
	if got := len(ring.Snapshot()); got != 0 {
		t.Fatalf("untraced put journaled %d events", got)
	}

	n.HandleMessage(context.Background(), transport.Envelope{From: 77, To: id, Msg: &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 2), Origin: 0xC0000001, TTL: TTLUnset, TraceID: 1234},
		Key:     key, Version: 2, Value: []byte("v2"),
	}})
	var apply *obs.Event
	for _, ev := range ring.Snapshot() {
		if ev.Kind == obs.TracePutApply && ev.TraceID == 1234 {
			apply = &ev
			break
		}
	}
	if apply == nil {
		t.Fatalf("traced put produced no put_apply event; ring: %+v", ring.Snapshot())
	}
	if apply.Key != key || apply.Bytes != 2 {
		t.Fatalf("put_apply event mangled: %+v", *apply)
	}
}

// TestTraceJournalsOnlyRelaysThatWereSent: a traced intra get that a
// member misses is journaled as a relay hop when it goes on to the mates,
// not when its TTL is spent and nothing is sent.
func TestTraceJournalsOnlyRelaysThatWereSent(t *testing.T) {
	const k = 4
	id := findNodeInSlice(t, 2, k)
	ring := obs.NewRing(64)
	cap := &capture{}
	n := NewNode(id, Config{
		Slices: k, Slicer: SlicerStatic, SystemSize: 100,
		AntiEntropyEvery: -1, Seed: 1, Trace: ring,
	}, store.NewMemory(), cap.sender(id))
	n.HandleMessage(context.Background(), transport.Envelope{From: 900, To: id, Msg: &MateReply{
		Slice: 2, Mates: []pssDescriptor{{ID: 900, Slice: 2}, {ID: 901, Slice: 2}},
	}})
	key := keyForSlice(t, 2, k)
	relays := func() (events int) {
		for _, ev := range ring.Snapshot() {
			if ev.Kind == obs.TraceGetRelay {
				events++
			}
		}
		return events
	}
	get := func(seq uint32, ttl uint8) {
		n.HandleMessage(context.Background(), transport.Envelope{From: 900, To: id, Msg: &GetRequest{
			Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, seq), Origin: 0xC0000001, TTL: ttl, Intra: true, TraceID: 77},
			Key:     key, Version: 1,
		}})
	}

	get(1, 0)
	if len(cap.sent) != 0 || relays() != 0 {
		t.Fatalf("spent intra get: %d sends, %d get_relay events, want none of either", len(cap.sent), relays())
	}
	get(2, 1)
	if len(cap.sent) != 1 || cap.sent[0].To != 901 || relays() != 1 {
		t.Fatalf("live intra get: sends %+v, %d get_relay events, want one copy to mate 901 and one event", cap.sent, relays())
	}
}

// TestTickObservesDuration: every Tick lands one observation in the
// per-tick histogram the /metrics plane exports.
func TestTickObservesDuration(t *testing.T) {
	n, _ := staticNode(t, 9, 4)
	if n.TickDurations().Count() != 0 {
		t.Fatal("histogram dirty before first tick")
	}
	n.Tick(context.Background())
	n.Tick(context.Background())
	if got := n.TickDurations().Count(); got != 2 {
		t.Fatalf("tick histogram count = %d, want 2", got)
	}
}

// TestTraceOpDisabledAllocs pins the acceptance requirement on the
// data path itself: with tracing off (nil ring) the per-request
// journal hook must not allocate.
func TestTraceOpDisabledAllocs(t *testing.T) {
	n, _ := staticNode(t, 9, 4)
	s := n.shards[0]
	allocs := testing.AllocsPerRun(1000, func() {
		s.traceOp(obs.TracePutApply, 7, "some-key", 128, 1)
	})
	if allocs != 0 {
		t.Fatalf("traceOp allocates %.1f times per call with tracing disabled, want 0", allocs)
	}
}

func BenchmarkTraceOpDisabled(b *testing.B) {
	cap := &capture{}
	n := NewNode(9, Config{
		Slices: 4, Slicer: SlicerStatic, SystemSize: 100,
		AntiEntropyEvery: -1, Seed: 1,
	}, store.NewMemory(), cap.sender(9))
	s := n.shards[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.traceOp(obs.TracePutApply, 7, "some-key", 128, 1)
	}
}

// TestStoredObjectsGaugeAfterShardPut: a put a running shard stores is
// in the gauge at once — Status and Metrics read the store — with no
// tick in between (there is none for an hour).
func TestStoredObjectsGaugeAfterShardPut(t *testing.T) {
	st := store.NewMemory()
	n := liveNode(st, &liveCapture{}, Config{DataShards: 2})
	n.Start(context.Background())
	defer n.Stop()
	n.Deliver(putEnv(1, "k", 1))
	for deadline := time.Now().Add(5 * time.Second); st.Count() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("put never stored")
		}
	}
	if got := n.Status().Counters[metrics.StoredObjects]; got != 1 {
		t.Errorf("Status stored_objects = %d, want 1", got)
	}
	if got := n.Metrics().Get(metrics.StoredObjects); got != 1 {
		t.Errorf("Metrics stored_objects = %d, want 1", got)
	}
	if n.Round() != 0 {
		t.Errorf("%d ticks ran", n.Round())
	}
}
