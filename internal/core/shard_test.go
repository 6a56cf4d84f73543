package core

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dataflasks/internal/gossip"
	"dataflasks/internal/leakcheck"
	"dataflasks/internal/metrics"
	"dataflasks/internal/pss"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// shardedNode builds a single-slice node whose store it owns: static
// slicer with one slice, so every key is local and every non-intra put
// stores synchronously. The discard sender swallows relays and acks.
func shardedNode(t *testing.T, st store.Store, shards int) *Node {
	t.Helper()
	discard := transport.SenderFunc(func(context.Context, transport.NodeID, interface{}) error { return nil })
	return shardedNodeTo(t, st, shards, discard)
}

// shardedNodeTo is shardedNode with the fabric the test wants.
func shardedNodeTo(t *testing.T, st store.Store, shards int, out transport.Sender) *Node {
	t.Helper()
	return NewNode(1, Config{
		Slices:     1,
		Slicer:     SlicerStatic,
		DataShards: shards,
		Seed:       7,
	}, st, out)
}

func putEnv(id uint64, key string, version uint64) transport.Envelope {
	return transport.Envelope{From: 2, To: 1, Msg: &PutRequest{
		Routing: Routing{ID: gossip.RequestID(id), NoAck: true, TTL: TTLUnset},
		Key:     key, Version: version, Value: []byte("v"),
	}}
}

func TestDataShardKeyClassifiesEveryDataKind(t *testing.T) {
	cases := []struct {
		msg  interface{}
		key  string
		data bool
	}{
		{&PutRequest{Key: "a"}, "a", true},
		{&GetRequest{Key: "b"}, "b", true},
		{&DeleteRequest{Key: "c"}, "c", true},
		{&PutBatchRequest{Objs: []store.Object{{Key: "d"}, {Key: "x"}}}, "d", true},
		{&DeleteBatchRequest{Items: []DeleteItem{{Key: "e"}, {Key: "y"}}}, "e", true},
		{&PutBatchRequest{}, "", true}, // empty batch still routes (shard 0) and is dropped there
		{&DeleteBatchRequest{}, "", true},
		{&PutAck{}, "", false},
		{&GetReply{}, "", false},
		{&MateQuery{}, "", false},
		{nil, "", false},
	}
	for _, c := range cases {
		key, ok := RequestKey(c.msg)
		if ok != c.data || key != c.key {
			t.Errorf("RequestKey(%T) = (%q, %v), want (%q, %v)", c.msg, key, ok, c.key, c.data)
		}
	}
}

func TestShardIndexStableAndSpread(t *testing.T) {
	const shards = 8
	counts := make([]int, shards)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("key-%d", i)
		a := shardIndex(key, shards)
		if b := shardIndex(key, shards); a != b {
			t.Fatalf("shardIndex(%q) unstable: %d then %d", key, a, b)
		}
		if a < 0 || a >= shards {
			t.Fatalf("shardIndex(%q) = %d out of range", key, a)
		}
		counts[a]++
	}
	for s, c := range counts {
		if c < 4096/shards/2 || c > 4096/shards*2 {
			t.Errorf("shard %d got %d of 4096 keys (poor spread): %v", s, c, counts)
		}
	}
	if shardIndex("anything", 1) != 0 {
		t.Error("single shard must swallow every key")
	}
}

// TestInlineModeUnchanged pins the compatibility contract: without
// StartShards, DispatchData declines everything and HandleMessage runs
// data handlers synchronously, whatever the shard count.
func TestInlineModeUnchanged(t *testing.T) {
	for _, shards := range []int{1, 4} {
		st := store.NewMemory()
		n := shardedNode(t, st, shards)
		env := putEnv(1, "k", 1)
		if n.DispatchData(env) {
			t.Fatalf("shards=%d: DispatchData accepted an envelope before StartShards", shards)
		}
		n.HandleMessage(context.Background(), env)
		if _, _, ok, _ := st.Get("k", 1); !ok {
			t.Fatalf("shards=%d: inline put did not land synchronously", shards)
		}
		if got := n.Metrics().Get(metrics.PutsServed); got != 1 {
			t.Fatalf("shards=%d: PutsServed = %d, want 1 (shard counters must merge)", shards, got)
		}
	}
}

// closeGuardStore fails every mutation after Close — the detector for
// the shutdown-ordering contract (drain the shards, then close the
// store).
type closeGuardStore struct {
	store.Store
	closed    atomic.Bool
	lateOps   atomic.Uint64
	putsSeen  atomic.Uint64
	batchSeen atomic.Uint64
}

func (g *closeGuardStore) check() error {
	if g.closed.Load() {
		g.lateOps.Add(1)
		return fmt.Errorf("store used after Close")
	}
	return nil
}

func (g *closeGuardStore) Put(key string, version uint64, value []byte) error {
	if err := g.check(); err != nil {
		return err
	}
	g.putsSeen.Add(1)
	return g.Store.Put(key, version, value)
}

func (g *closeGuardStore) PutBatch(objs []store.Object) error {
	if err := g.check(); err != nil {
		return err
	}
	g.batchSeen.Add(uint64(len(objs)))
	return g.Store.PutBatch(objs)
}

func (g *closeGuardStore) DeleteBatch(items []store.Deletion) ([]bool, error) {
	if err := g.check(); err != nil {
		return make([]bool, len(items)), err
	}
	return g.Store.DeleteBatch(items)
}

func (g *closeGuardStore) Close() error {
	g.closed.Store(true)
	return g.Store.Close()
}

// TestStopShardsDrainsBeforeStoreClose is the shutdown-ordering
// contract: every envelope a shard mailbox accepted is fully applied
// by the time StopShards returns, so the owner can close the store
// with nothing in flight — and nothing may touch the store afterwards.
func TestStopShardsDrainsBeforeStoreClose(t *testing.T) {
	before := leakcheck.Snapshot()
	guard := &closeGuardStore{Store: store.NewMemory()}
	n := shardedNode(t, guard, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.StartShards(ctx)

	const producers = 4
	const perProducer = 2000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := uint64(p)<<32 | uint64(i+1)
				env := putEnv(id, fmt.Sprintf("key-%d-%d", p, i), 1)
				for !n.DispatchData(env) {
					t.Error("DispatchData declined a data envelope in external mode")
					return
				}
			}
		}(p)
	}
	wg.Wait()
	n.StopShards()

	// Drain accounting: every dispatched put was either applied or
	// visibly dropped on mailbox overflow — none may be in flight.
	served := n.Metrics().Get(metrics.PutsServed)
	dropped := n.ShardDropped()
	if served+dropped != producers*perProducer {
		t.Fatalf("after drain: served %d + dropped %d != dispatched %d",
			served, dropped, producers*perProducer)
	}
	// Objects, not calls: the puts of one run land as one PutBatch.
	if stored := guard.putsSeen.Load() + guard.batchSeen.Load(); served != stored {
		t.Fatalf("PutsServed %d != objects the store saw %d", served, stored)
	}
	if err := guard.Close(); err != nil {
		t.Fatal(err)
	}
	// Envelopes dispatched after the drain are lost, not applied: the
	// store must never see them.
	_ = n.DispatchData(putEnv(1<<40, "late", 1))
	time.Sleep(20 * time.Millisecond)
	if late := guard.lateOps.Load(); late != 0 {
		t.Fatalf("%d store operations after Close", late)
	}
	leakcheck.Check(t, before)
}

// TestStartShardsTwicePanics pins the lifecycle contract.
func TestStartShardsTwicePanics(t *testing.T) {
	n := shardedNode(t, store.NewMemory(), 2)
	ctx := context.Background()
	n.StartShards(ctx)
	defer n.StopShards()
	defer func() {
		if recover() == nil {
			t.Error("second StartShards did not panic")
		}
	}()
	n.StartShards(ctx)
}

// TestStopShardsWithoutStartIsNoop: inline nodes (simulator, unit
// tests) never start shards; their owners may still call StopShards.
func TestStopShardsWithoutStartIsNoop(t *testing.T) {
	n := shardedNode(t, store.NewMemory(), 4)
	n.StopShards() // must not panic or block
}

// TestShardObservabilitySurface: depths, capacity, tick histograms and
// the drop counter must stay readable while shards run.
func TestShardObservabilitySurface(t *testing.T) {
	n := shardedNode(t, store.NewMemory(), 4)
	if n.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d, want 4", n.ShardCount())
	}
	if n.ShardMailboxCapacity() <= 0 {
		t.Fatal("ShardMailboxCapacity must be positive")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.StartShards(ctx)
	for i := 0; i < 200; i++ {
		n.DispatchData(putEnv(uint64(i+1), fmt.Sprintf("k%d", i), 1))
	}
	for i := 0; i < n.ShardCount(); i++ {
		if d := n.ShardDepth(i); d < 0 || d > n.ShardMailboxCapacity() {
			t.Errorf("shard %d depth %d out of range", i, d)
		}
		if n.ShardTickDurations(i) == nil {
			t.Errorf("shard %d has no tick histogram", i)
		}
	}
	if n.ShardDepth(99) != 0 {
		t.Error("out-of-range shard index must read depth 0")
	}
	n.StopShards()
}

// TestResetMetricsClearsShardCounters: the lab harness resets between
// measurement phases; shard-side counts must reset too.
func TestResetMetricsClearsShardCounters(t *testing.T) {
	n := shardedNode(t, store.NewMemory(), 4)
	n.HandleMessage(context.Background(), putEnv(1, "a", 1))
	if n.Metrics().Get(metrics.PutsServed) != 1 {
		t.Fatal("put not counted")
	}
	n.ResetMetrics()
	if got := n.Metrics().Get(metrics.PutsServed); got != 0 {
		t.Fatalf("PutsServed = %d after ResetMetrics, want 0", got)
	}
}

// TestShardHammer is the race-hammer: concurrent Put/Get/Delete and
// batches dispatched across 8 shards, against a compacting log store,
// while the control loop ticks (anti-entropy digests walk the store)
// and the node finally drains and closes. Run under -race this is the
// proof the shard boundary is sound; -short keeps it in CI scale,
// nightly runs it full.
func TestShardHammer(t *testing.T) {
	before := leakcheck.Snapshot()
	dir, err := os.MkdirTemp("", "shard-hammer-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// Tiny segments and an aggressive live ratio force compaction to
	// churn underneath the shards.
	logStore, err := store.OpenLog(dir, store.LogOptions{
		SegmentMaxBytes:  32 << 10,
		CompactLiveRatio: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	guard := &closeGuardStore{Store: logStore}
	n := shardedNode(t, guard, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.StartShards(ctx)

	iters := 4000
	if testing.Short() {
		iters = 800
	}

	// Control plane: one goroutine ticking (PSS, anti-entropy, shard
	// route publication) at a hot cadence.
	stopTick := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		for {
			select {
			case <-stopTick:
				return
			default:
				n.Tick(ctx)
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	val := make([]byte, 256)
	for p := 0; p < 6; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := uint64(p+1)<<40 | uint64(i+1)
				key := fmt.Sprintf("h-%d", i%512) // overlap keys across producers
				var env transport.Envelope
				switch i % 5 {
				case 0, 1:
					env = transport.Envelope{From: 2, To: 1, Msg: &PutRequest{
						Routing: Routing{ID: gossip.RequestID(id), NoAck: true, TTL: TTLUnset},
						Key:     key, Version: uint64(i + 1), Value: val,
					}}
				case 2:
					env = transport.Envelope{From: 2, To: 1, Msg: &GetRequest{
						Routing: Routing{ID: gossip.RequestID(id), TTL: TTLUnset},
						Key:     key, Version: store.Latest,
					}}
				case 3:
					objs := []store.Object{
						{Key: key, Version: uint64(i + 2), Value: val},
						{Key: fmt.Sprintf("h-%d", (i+7)%512), Version: uint64(i + 2), Value: val},
					}
					env = transport.Envelope{From: 2, To: 1, Msg: &PutBatchRequest{
						Routing: Routing{ID: gossip.RequestID(id), NoAck: true, TTL: TTLUnset},
						Objs:    objs,
					}}
				default:
					env = transport.Envelope{From: 2, To: 1, Msg: &DeleteRequest{
						Routing: Routing{ID: gossip.RequestID(id), NoAck: true, TTL: TTLUnset},
						Key:     key, Version: store.Latest,
					}}
				}
				n.DispatchData(env)
			}
		}(p)
	}
	wg.Wait()
	close(stopTick)
	tickWG.Wait()
	n.StopShards()
	if guard.putsSeen.Load()+guard.batchSeen.Load() == 0 {
		t.Fatal("hammer stored nothing — the workload never reached the store")
	}
	// Post-drain the store must be quiescent and closable.
	if err := guard.Close(); err != nil {
		t.Fatal(err)
	}
	if late := guard.lateOps.Load(); late != 0 {
		t.Fatalf("%d store operations after Close", late)
	}
	leakcheck.Check(t, before)
}

// sentAs names what a data-plane message handed to the fabric carries,
// one entry per object: acks, replies and intra-slice relay copies by
// kind, key and version. A run's batched relay counts as the copies it
// holds, and a reply batch as its answers (answersIn), so legs whose runs
// differ in length stay comparable; control traffic names nothing.
func sentAs(msg interface{}) []string {
	switch m := msg.(type) {
	case *PutAck:
		return []string{fmt.Sprintf("put-ack %s v%d", m.Key, m.Version)}
	case *DeleteAck:
		return []string{fmt.Sprintf("delete-ack %s v%d", m.Key, m.Version)}
	case *GetReply:
		return []string{fmt.Sprintf("get-reply %s v%d", m.Key, m.Version)}
	case *PutRequest:
		return []string{fmt.Sprintf("put-relay %s v%d intra=%v", m.Key, m.Version, m.Intra)}
	case *PutBatchRequest:
		out := make([]string, len(m.Objs))
		for i, o := range m.Objs {
			out[i] = fmt.Sprintf("put-relay %s v%d intra=%v", o.Key, o.Version, m.Intra)
		}
		return out
	case *DeleteRequest:
		return []string{fmt.Sprintf("delete-relay %s v%d intra=%v", m.Key, m.Version, m.Intra)}
	case *GetRequest:
		return []string{fmt.Sprintf("get-relay %s intra=%v", m.Key, m.Intra)}
	}
	return nil
}

// TestShardEquivalenceSingleVsMany feeds the same single-node workload
// — acked puts, deletes and gets on a node with one slice-mate — through
// 1 shard and 8 shards on their own goroutines, and through HandleMessage
// on a caller-driven node, and demands of all three the same converged
// store (keys, versions, values) and the same multiset of messages handed
// to the fabric: the legs differ only in who drives the shards.
func TestShardEquivalenceSingleVsMany(t *testing.T) {
	type outcome struct {
		st   store.Store
		sent map[string]int
	}
	const client = transport.NodeID(0xC0000001)
	run := func(shards int, started bool) outcome {
		out := outcome{st: store.NewMemory(), sent: map[string]int{}}
		var mu sync.Mutex
		n := shardedNodeTo(t, out.st, shards, transport.SenderFunc(
			func(_ context.Context, _ transport.NodeID, msg interface{}) error {
				mu.Lock()
				defer mu.Unlock()
				for _, m := range answersIn(msg) {
					for _, what := range sentAs(m) {
						out.sent[what]++
					}
				}
				return nil
			}))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		n.HandleMessage(ctx, transport.Envelope{From: 9, To: 1, Msg: &MateReply{
			Slice: 0, Mates: []pss.Descriptor{{ID: 9, Slice: 0}},
		}})
		deliver := func(env transport.Envelope) { n.HandleMessage(ctx, env) }
		if started {
			n.StartShards(ctx)
			// Single-producer backpressure: never outrun a shard's mailbox,
			// so no envelope is dropped and every leg sees the same
			// per-key operation order.
			deliver = func(env transport.Envelope) {
				key, _ := RequestKey(env.Msg)
				si := shardIndex(key, shards)
				for n.ShardDepth(si) >= n.ShardMailboxCapacity()-1 {
					time.Sleep(100 * time.Microsecond)
				}
				if !n.DispatchData(env) {
					t.Fatal("dispatch declined on a started node")
				}
			}
		}
		for i := 0; i < 3000; i++ {
			key := fmt.Sprintf("eq-%d", i%300)
			id := gossip.RequestID(i + 1)
			var msg interface{}
			switch i % 7 {
			case 6:
				msg = &DeleteRequest{Routing: Routing{ID: id, Origin: client, TTL: TTLUnset}, Key: key, Version: uint64(i / 300)}
			case 3:
				msg = &GetRequest{Routing: Routing{ID: id, Origin: client, TTL: TTLUnset}, Key: key, Version: store.Latest}
			default:
				msg = &PutRequest{
					Routing: Routing{ID: id, Origin: client, TTL: TTLUnset},
					Key:     key, Version: uint64(i/300 + 1), Value: []byte(key),
				}
			}
			deliver(transport.Envelope{From: 2, To: 1, Msg: msg})
		}
		n.StopShards()
		if n.ShardDropped() != 0 {
			t.Fatalf("%d envelopes dropped despite backpressure", n.ShardDropped())
		}
		return out
	}
	one := run(1, true)
	if len(one.sent) == 0 || one.st.Count() == 0 {
		t.Fatalf("degenerate workload: %d kinds of message sent, %d versions stored", len(one.sent), one.st.Count())
	}
	for _, leg := range []struct {
		name string
		got  outcome
	}{{"8 shards", run(8, true)}, {"caller-driven", run(1, false)}} {
		a, b := one.st, leg.got.st
		if a.Count() != b.Count() {
			t.Fatalf("store contents diverge: 1 shard holds %d versions, %s holds %d", a.Count(), leg.name, b.Count())
		}
		_ = a.ForEachIn(store.AllRanges(), func(key string, version uint64) bool {
			av, _, okA, _ := a.Get(key, version)
			bv, _, okB, _ := b.Get(key, version)
			if !okA || !okB || string(av) != string(bv) {
				t.Fatalf("key %q v%d: 1-shard ok=%v, %s ok=%v", key, version, okA, leg.name, okB)
			}
			return true
		})
		if len(one.sent) != len(leg.got.sent) {
			t.Errorf("1 shard sent %d distinct messages, %s %d", len(one.sent), leg.name, len(leg.got.sent))
		}
		for what, count := range one.sent {
			if got := leg.got.sent[what]; got != count {
				t.Errorf("%q: sent %d times by 1 shard, %d times by %s", what, count, got, leg.name)
			}
		}
	}
}
