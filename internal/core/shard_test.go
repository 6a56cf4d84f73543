package core

import (
	"context"
	"fmt"
	"os"
	"runtime"
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
		{&DeleteBatchRequest{Items: []DeleteItem{{Key: "c"}}}, "c", true},
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

// closeGuardStore fails every mutation and read after Close — the
// detector for the shutdown-ordering contract (drain the shards, then
// close the store).
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

func (g *closeGuardStore) Get(key string, version uint64) ([]byte, uint64, bool, error) {
	if err := g.check(); err != nil {
		return nil, 0, false, err
	}
	return g.Store.Get(key, version)
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

// TestShardObservabilitySurface: depths, capacity and the drop counter
// must stay readable while shards run.
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
					env = transport.Envelope{From: 2, To: 1, Msg: &DeleteBatchRequest{
						Routing: Routing{ID: gossip.RequestID(id), NoAck: true, TTL: TTLUnset},
						Items:   []DeleteItem{{Key: key, Version: store.Latest}},
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

// TestShardWakeHammer: producers feed a 4-shard node through
// DispatchData — puts, queued gets and gets it may serve inline — in
// bursts, each producer waiting for every answer of its burst before the
// next. Every run, inline get and tick is a point where a wake-up could
// be lost; a lost one strands a burst unless another producer's dispatch
// happens to wake the shards, and once every producer waits, nothing
// does: the deadline catches it. The get right after each put names the
// put's key, so it often waits on the put's window: its reply must carry
// that version or a newer one.
func TestShardWakeHammer(t *testing.T) {
	const producers, burst, bursts, keys = 4, 16, 400, 256
	const base = transport.NodeID(0xC0000100)
	st := store.NewMemory()
	for i := 0; i < keys; i++ {
		if err := st.Put(fmt.Sprintf("w-%d", i), 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// answered[p] gets one token per answer to producer p; it never holds
	// more than a burst, so the fabric never blocks on it.
	answered := make([]chan struct{}, producers)
	for p := range answered {
		answered[p] = make(chan struct{}, burst)
	}
	// atLeast maps a get's request id to the version its reply must reach.
	var atLeast sync.Map
	var stale atomic.Int64
	// No tick for an hour: its mailbox check cannot cover for a lost
	// wake-up.
	n := NewNode(1, Config{Slices: 1, Slicer: SlicerStatic, DataShards: 4, Seed: 7, RoundPeriod: time.Hour}, st,
		transport.SenderFunc(func(_ context.Context, to transport.NodeID, msg interface{}) error {
			for _, m := range answersIn(msg) {
				switch m := m.(type) {
				case *GetReply:
					if want, ok := atLeast.Load(m.ID); ok && m.Version < want.(uint64) {
						stale.Add(1)
					}
					answered[to-base] <- struct{}{}
				case *PutAck:
					answered[to-base] <- struct{}{}
				}
			}
			return nil
		}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.StartShards(ctx)
	defer n.StopShards()

	errs := make(chan error, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			origin := base + transport.NodeID(p)
			for b, seq := 0, uint32(0); b < bursts; b++ {
				var put *PutRequest
				for i := 0; i < burst; i++ {
					seq++
					r := Routing{ID: gossip.MakeRequestID(origin, seq), Origin: origin, TTL: TTLUnset}
					key := fmt.Sprintf("w-%d", (int(seq)*7+p)%keys)
					env := transport.Envelope{From: origin, To: 1, Last: i%4 > 1}
					switch i % 4 {
					case 0:
						put = &PutRequest{Routing: r, Key: key, Version: uint64(seq + 1), Value: []byte("v")}
						env.Msg = put
					case 1:
						atLeast.Store(r.ID, put.Version)
						env.Msg = &GetRequest{Routing: r, Key: put.Key, Version: store.Latest}
					default:
						env.Msg = &GetRequest{Routing: r, Key: key, Version: store.Latest}
					}
					n.DispatchData(env)
				}
				for i := 0; i < burst; i++ {
					select {
					case <-answered[p]:
					case <-time.After(10 * time.Second):
						errs <- fmt.Errorf("producer %d: burst %d has %d of %d answers after 10s", p, b, i, burst)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d := n.ShardDropped(); d != 0 {
		t.Errorf("%d envelopes dropped with %d in flight", d, producers*burst)
	}
	if s := stale.Load(); s != 0 {
		t.Errorf("%d gets answered an older version than the put queued before them", s)
	}
}

// TestInlinePutHammer: producers feed a 4-shard node with one mate
// through DispatchData — paced client puts, which run inline on an idle
// shard, queued ones, gets right behind them, and the mate's relay
// copies, single and batched, filed inline when nothing is behind them —
// so every put a read loop may run races the shard goroutines' runs.
// Each producer waits for every answer of its burst before the next: a
// lost wake-up strands it until the deadline. At the end no mailbox
// holds mail and no run is counted in progress, and once the stop
// committed the window every put and copy is stored.
func TestInlinePutHammer(t *testing.T) {
	const producers, burst, bursts = 4, 16, 300
	const base, mate = transport.NodeID(0xC0000100), transport.NodeID(9)
	st := store.NewMemory()
	answered := make([]chan struct{}, producers)
	for p := range answered {
		answered[p] = make(chan struct{}, burst)
	}
	var atLeast sync.Map // get id → the version its reply must reach
	var stale atomic.Int64
	n := NewNode(1, Config{Slices: 1, Slicer: SlicerStatic, DataShards: 4, Seed: 7, RoundPeriod: time.Hour, AntiEntropyEvery: -1}, st,
		transport.SenderFunc(func(_ context.Context, to transport.NodeID, msg interface{}) error {
			if to == mate {
				return nil // the intra relays of entry puts
			}
			for _, m := range answersIn(msg) {
				if r, ok := m.(*GetReply); ok {
					if want, ok := atLeast.Load(r.ID); ok && r.Version < want.(uint64) {
						stale.Add(1)
					}
				}
				answered[to-base] <- struct{}{}
			}
			return nil
		}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.HandleMessage(ctx, transport.Envelope{From: mate, To: 1, Msg: &MateReply{Slice: 0, Mates: []pss.Descriptor{{ID: mate, Slice: 0}}}})
	n.StartShards(ctx)
	defer n.StopShards()

	stored := make([][]store.Object, producers) // what each producer put or relayed
	errs := make(chan error, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			origin := base + transport.NodeID(p)
			for b, seq := 0, uint32(0); b < bursts; b++ {
				answers := 0
				var put *PutRequest
				for i := 0; i < burst; i++ {
					seq++
					key := fmt.Sprintf("p%d-%d", p, seq)
					r := Routing{ID: gossip.MakeRequestID(origin, seq), Origin: origin, TTL: TTLUnset}
					env := transport.Envelope{From: origin, To: 1, Last: true}
					switch i % 4 {
					case 0, 1: // a paced put, or one with a frame behind it
						put = &PutRequest{Routing: r, Key: key, Version: uint64(seq), Value: []byte("v")}
						env.Msg, env.Last, env.Paced = put, i%4 == 0, i%4 == 0
						stored[p] = append(stored[p], store.Object{Key: key, Version: put.Version})
					case 2:
						atLeast.Store(r.ID, put.Version)
						env.Msg = &GetRequest{Routing: r, Key: put.Key, Version: store.Latest}
					default: // the mate's copies: a single one, then a batch with a frame behind it
						r = Routing{ID: gossip.MakeRequestID(mate, uint32(p)<<24|seq), Intra: true, NoAck: true, TTL: uint8(b % 2)}
						objs := []store.Object{{Key: "m" + key, Version: 1, Value: []byte("v")}}
						env.From, env.Msg = mate, &PutRequest{Routing: r, Key: objs[0].Key, Version: 1, Value: objs[0].Value}
						if i == 7 {
							objs = append(objs, store.Object{Key: "n" + key, Version: 1, Value: []byte("v")})
							env.Msg, env.Last = &PutBatchRequest{Routing: r, Objs: objs}, false
						}
						stored[p] = append(stored[p], objs...)
					}
					if env.From == origin {
						answers++
					}
					n.DispatchData(env)
				}
				for i := 0; i < answers; i++ {
					select {
					case <-answered[p]:
					case <-time.After(10 * time.Second):
						errs <- fmt.Errorf("producer %d: burst %d has %d of %d answers after 10s", p, b, i, answers)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		queued := 0
		for i := range n.shards {
			queued += n.ShardDepth(i)
		}
		if queued == 0 && n.running.Load() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("5s after the last answer: %d envelopes queued, %d runs in progress", queued, n.running.Load())
		}
	}
	if n.Metrics().Get(metrics.InlinePuts) == 0 {
		t.Error("no put ran inline: the hammer missed the path it is for")
	}
	if d := n.ShardDropped(); d != 0 {
		t.Errorf("%d envelopes dropped", d)
	}
	if s := stale.Load(); s != 0 {
		t.Errorf("%d gets answered an older version than the put queued before them", s)
	}
	n.StopShards()
	for p := range stored {
		for _, o := range stored[p] {
			if _, _, ok, err := st.Get(o.Key, o.Version); !ok || err != nil {
				t.Fatalf("%s v%d not stored after the stop (err %v)", o.Key, o.Version, err)
			}
		}
	}
}

// TestDeleteBatchHammer: producers race delete batches whose two keys
// live on different shards against mates' relay copies of the same keys,
// while a round commits the window every 2ms. Producers of even and odd
// number lead the batches of one key pair from opposite shards, so runs
// of both shards commit the window and delete at once. Each relay batch
// is queued ahead of its delete on the delete's own shard, so it was
// filed before the delete ran; after the final drain no deleted version
// may be stored, and every version kept beside them must be. A get
// queued behind each delete asks for a version it deleted: none may be
// answered, since nothing queued behind a delete is handled before it,
// even while its run waits for the window's lock.
func TestDeleteBatchHammer(t *testing.T) {
	const shards, producers, pairs = 4, 4, 8
	rounds := 400
	if testing.Short() {
		rounds = 150
	}
	st := store.NewMemory()
	var behind sync.Map // ids of the gets queued behind a delete
	var answeredBehind atomic.Int64
	out := transport.SenderFunc(func(_ context.Context, _ transport.NodeID, msg interface{}) error {
		for _, m := range answersIn(msg) {
			if r, ok := m.(*GetReply); ok {
				if _, late := behind.Load(r.ID); late {
					answeredBehind.Add(1)
				}
			}
		}
		return nil
	})
	n := NewNode(1, Config{Slices: 1, Slicer: SlicerStatic, DataShards: shards, Seed: 7}, st, out)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.StartShards(ctx)
	stopRounds, roundsDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(roundsDone)
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stopRounds:
				return
			case <-ticker.C:
				n.Tick(ctx)
			}
		}
	}()

	// keys is the pair producer p deletes in round r, its batch's leading
	// key first: the pair's x for even producers, its y for odd ones.
	keys := func(p, r int) (string, string) {
		j := r % pairs
		x, y := keyOnShard(fmt.Sprintf("x%d-", j), j%shards, shards), keyOnShard(fmt.Sprintf("y%d-", j), (j+1)%shards, shards)
		if p%2 == 1 {
			return y, x
		}
		return x, y
	}
	dispatch := func(msg interface{}) {
		key, _ := RequestKey(msg)
		for n.ShardDepth(shardIndex(key, shards)) > n.ShardMailboxCapacity()-64 {
			time.Sleep(100 * time.Microsecond)
		}
		n.DispatchData(transport.Envelope{From: 9, To: 1, Msg: msg})
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			mate := transport.NodeID(100 + p)
			for r := 0; r < rounds; r++ {
				a, b := keys(p, r)
				gone, kept := uint64(p)<<32|uint64(2*r+1), uint64(p)<<32|uint64(2*r+2)
				dispatch(&PutBatchRequest{
					Routing: Routing{ID: gossip.MakeRequestID(mate, uint32(r+1)), Intra: true, NoAck: true},
					Objs:    []store.Object{{Key: a, Version: gone, Value: []byte("g")}, {Key: b, Version: gone, Value: []byte("g")}, {Key: b, Version: kept, Value: []byte("k")}},
				})
				dispatch(&GetRequest{Routing: Routing{ID: gossip.MakeRequestID(mate, uint32(rounds+2*r+1)), Origin: mate, TTL: TTLUnset}, Key: b, Version: gone})
				dispatch(&DeleteBatchRequest{
					Routing: Routing{ID: gossip.MakeRequestID(mate, uint32(rounds+2*r+2)), Origin: mate, TTL: TTLUnset},
					Items:   []DeleteItem{{Key: a, Version: gone}, {Key: b, Version: gone}},
				})
				late := gossip.MakeRequestID(mate, uint32(3*rounds+r+1))
				behind.Store(late, struct{}{})
				dispatch(&GetRequest{Routing: Routing{ID: late, Origin: mate, TTL: TTLUnset}, Key: a, Version: gone})
			}
		}(p)
	}
	wg.Wait()
	close(stopRounds)
	<-roundsDone
	n.StopShards()
	if d := n.ShardDropped(); d != 0 {
		t.Fatalf("%d envelopes dropped despite backpressure", d)
	}
	if got := answeredBehind.Load(); got != 0 {
		t.Errorf("%d gets queued behind a delete were served the version it deleted", got)
	}
	for p := 0; p < producers; p++ {
		for r := 0; r < rounds; r++ {
			a, b := keys(p, r)
			gone, kept := uint64(p)<<32|uint64(2*r+1), uint64(p)<<32|uint64(2*r+2)
			for _, k := range []string{a, b} {
				if _, _, ok, _ := st.Get(k, gone); ok {
					t.Fatalf("producer %d round %d: %s v%d is stored after its delete", p, r, k, gone)
				}
			}
			if _, _, ok, _ := st.Get(b, kept); !ok {
				t.Fatalf("producer %d round %d: the kept version v%d is missing", p, r, kept)
			}
		}
	}
}

// sentAs names what a data-plane message handed to the fabric carries,
// one entry per object: intra-slice relay copies by kind, key and
// version, answers (which name no key) by kind, request id and version or
// a delete's applied count. A run's batched relay counts as the copies it
// holds, and a reply batch as its answers (answersIn), so legs whose runs
// differ in length stay comparable; control traffic names nothing.
func sentAs(msg interface{}) []string {
	switch m := msg.(type) {
	case *PutAck:
		return []string{fmt.Sprintf("put-ack %v v%d", m.ID, m.Version)}
	case *DeleteBatchAck:
		return []string{fmt.Sprintf("delete-ack %v applied=%d", m.ID, m.Applied)}
	case *GetReply:
		return []string{fmt.Sprintf("get-reply %v v%d", m.ID, m.Version)}
	case *PutRequest:
		return []string{fmt.Sprintf("put-relay %s v%d intra=%v", m.Key, m.Version, m.Intra)}
	case *PutBatchRequest:
		out := make([]string, len(m.Objs))
		for i, o := range m.Objs {
			out[i] = fmt.Sprintf("put-relay %s v%d intra=%v", o.Key, o.Version, m.Intra)
		}
		return out
	case *DeleteBatchRequest:
		out := make([]string, len(m.Items))
		for i, it := range m.Items {
			out[i] = fmt.Sprintf("delete-relay %s v%d intra=%v", it.Key, it.Version, m.Intra)
		}
		return out
	case *GetRequest:
		return []string{fmt.Sprintf("get-relay %s intra=%v", m.Key, m.Intra)}
	}
	return nil
}

// TestShardEquivalenceSingleVsMany feeds the same single-node workload
// — acked puts, deletes and gets on a node with one slice-mate, and the
// mate's relay copies of key pairs that a delete batch led by the pair's
// first key then removes (on 8 shards the pair spans two) — through 1
// shard and 8 shards on their own goroutines, and through HandleMessage
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
			if i%7 == 6 {
				// Keys of their own, on two shards of eight, read by nobody:
				// cross-shard timing cannot change what a get answers.
				a := keyOnShard(fmt.Sprintf("sp-%d-a", i), i%8, 8)
				b := keyOnShard(fmt.Sprintf("sp-%d-b", i), (i+1)%8, 8)
				deliver(transport.Envelope{From: 9, To: 1, Msg: &PutBatchRequest{
					Routing: Routing{ID: gossip.MakeRequestID(9, uint32(i)), Intra: true, NoAck: true},
					Objs:    []store.Object{{Key: a, Version: 1, Value: []byte(a)}, {Key: b, Version: 1, Value: []byte(b)}, {Key: b, Version: 2, Value: []byte(b)}},
				}})
				deliver(transport.Envelope{From: 2, To: 1, Msg: &DeleteBatchRequest{
					Routing: Routing{ID: gossip.RequestID(1_000_000 + i), Origin: client, TTL: TTLUnset},
					Items:   []DeleteItem{{Key: a, Version: 1}, {Key: b, Version: 1}},
				}})
			}
			var msg interface{}
			switch i % 7 {
			case 6:
				msg = &DeleteBatchRequest{Routing: Routing{ID: id, Origin: client, TTL: TTLUnset}, Items: []DeleteItem{{Key: key, Version: uint64(i / 300)}}}
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

// TestWakeRunLetsGoOfAnEmptiedShard: a wake-up that saw mail on a shard
// held by another run, and takes the shard's token after that run drained
// the mail and let go, must let the token go again and count no run in
// progress. One that kept the shard took nothing and so never ended: the
// token stayed held and Node.running above zero, and with running above
// zero no producer wakes anybody, so the node's mailboxes filled and
// dropped with both shard goroutines idle (a goroutine dump of a
// `mixed_pipeline` node that dropped showed just that).
func TestWakeRunLetsGoOfAnEmptiedShard(t *testing.T) {
	// A caller-driven node whose one shard has a mailbox: wake-ups are the
	// test's alone.
	h := newRunHarness(t, newRunStore(false), Config{})
	n, s := h.n, h.n.shards[0]
	s.mailbox = make(chan transport.Envelope, 1)
	env := transport.Envelope{From: runClient, To: 1, Msg: getOf("missing", 1)}
	// The other run: it holds the token whenever the mailbox holds mail,
	// so a wake-up can only miss the mail or find it gone.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.token.Lock()
			s.mailbox <- env
			runtime.Gosched()
			<-s.mailbox
			s.token.Unlock()
			runtime.Gosched()
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	var r run
	for deadline := time.Now().Add(250 * time.Millisecond); time.Now().Before(deadline); {
		n.wakeRun(context.Background(), &r, 0)
		if held := len(r.shards); held != 0 || n.running.Load() != 0 {
			running := n.running.Load()
			r.release()
			t.Fatalf("a wake-up that took nothing holds %d shards, running = %d", held, running)
		}
	}
}
