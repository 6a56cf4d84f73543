// Benchmarks regenerating the paper's evaluation (§VI) and micro-
// benchmarks for the substrates. One benchmark per figure:
//
//	go test -bench=Fig3 -benchmem            # paper Figure 3
//	go test -bench=Fig4 -benchmem            # paper Figure 4
//	go test -bench=. -benchmem               # everything
//
// The figure benchmarks report msgs/node (the paper's y-axis) as a
// custom metric per sweep point; wall-clock time is the simulator's
// cost, not the system's. Full-resolution sweeps (500–3000 nodes) run
// via cmd/flaskbench; benchmarks use a reduced sweep so `go test
// -bench=.` stays minutes, not hours.
package dataflasks_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dataflasks"
	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/gossip"
	"dataflasks/internal/lab"
	"dataflasks/internal/pss"
	"dataflasks/internal/sim"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
	"dataflasks/internal/workload"
)

// benchNs is the reduced node sweep for benchmarks.
var benchNs = []int{250, 500, 1000}

// BenchmarkFig3 regenerates Figure 3 (messages per node, constant
// slices) at each sweep point.
func BenchmarkFig3(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var last lab.FigureRow
			for i := 0; i < b.N; i++ {
				last = lab.MessagesAt(n, 10, 42+uint64(i))
			}
			b.ReportMetric(last.MsgsPerNode, "msgs/node")
			b.ReportMetric(float64(last.OK), "ops-ok")
		})
	}
}

// BenchmarkFig4 regenerates Figure 4 (messages per node, slices
// proportional to nodes, replication factor 50).
func BenchmarkFig4(b *testing.B) {
	for _, n := range benchNs {
		k := n / 50
		if k < 1 {
			k = 1
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var last lab.FigureRow
			for i := 0; i < b.N; i++ {
				last = lab.MessagesAt(n, k, 42+uint64(i))
			}
			b.ReportMetric(last.MsgsPerNode, "msgs/node")
			b.ReportMetric(float64(last.OK), "ops-ok")
		})
	}
}

// BenchmarkSimulationRound measures the simulator driving one full
// gossip round across a converged cluster (PSS + slicing + discovery).
func BenchmarkSimulationRound(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			c := lab.NewCluster(lab.ClusterConfig{
				N: n, Seed: 7, Node: core.Config{Slices: 10},
			})
			c.Run(20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Run(1)
			}
		})
	}
}

// BenchmarkSimulatedPut measures one epidemic write spreading through
// a converged simulated cluster until fully drained.
func BenchmarkSimulatedPut(b *testing.B) {
	c := lab.NewCluster(lab.ClusterConfig{
		N: 500, Seed: 9, Node: core.Config{Slices: 10},
	})
	cl := c.NewClient(client.Config{}, nil)
	c.Run(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.StartPut(fmt.Sprintf("bench%08d", i), 1, []byte("payload"), nil)
		c.Run(3)
	}
}

// BenchmarkLiveClusterPut measures end-to-end acknowledged writes on a
// real goroutine cluster (in-memory fabric).
func BenchmarkLiveClusterPut(b *testing.B) {
	cluster, err := dataflasks.NewCluster(40, dataflasks.Config{Slices: 4},
		dataflasks.WithRoundPeriod(10*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()
	cl, err := cluster.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond) // converge
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("bench%08d", i), 1, []byte("payload")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayLocalVsLoopback is what a gateway's client costs per
// operation on the node it is attached to: 4 KiB puts and newest-version
// gets, 16 in flight, against one memory-engine node — through
// Node.NewClient (function calls both ways) and through ConnectClient
// seeded with the same node (a loopback socket each way, which is how the
// gateway was attached before). wire_B/op is what the node encoded for a
// socket per operation.
func BenchmarkGatewayLocalVsLoopback(b *testing.B) {
	const window, keys = 16, 1024
	cfg := dataflasks.Config{Slices: 1, Slicer: dataflasks.StaticSlicer, SystemSize: 1}
	value := make([]byte, 4<<10)
	attach := []struct {
		how  string
		open func(*dataflasks.Node) (*dataflasks.Client, error)
	}{
		{"local", func(n *dataflasks.Node) (*dataflasks.Client, error) { return n.NewClient(cfg) }},
		{"loopback", func(n *dataflasks.Node) (*dataflasks.Client, error) {
			return dataflasks.ConnectClient("127.0.0.1:0", []string{fmt.Sprintf("1@%s", n.Addr())}, cfg)
		}},
	}
	for _, a := range attach {
		for _, kind := range []string{"put", "get"} {
			b.Run(a.how+"/"+kind, func(b *testing.B) {
				node, err := dataflasks.StartNode(dataflasks.NodeConfig{
					ID: 1, Bind: "127.0.0.1:0", RoundPeriod: 50 * time.Millisecond, Config: cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer node.Close()
				cl, err := a.open(node)
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				ctx := context.Background()
				if kind == "get" {
					for k := 0; k < keys; k++ {
						if err := cl.Put(ctx, fmt.Sprintf("gw%04d", k), 1, value); err != nil {
							b.Fatal(err)
						}
					}
				}
				start := func(i int) *dataflasks.Op {
					key := fmt.Sprintf("gw%04d", i%keys)
					if kind == "get" {
						return cl.GetLatestAsync(key)
					}
					return cl.PutAsync(key, uint64(i/keys+1), value)
				}
				encoded := node.WireStats().EncodeBytes
				b.ReportAllocs()
				b.ResetTimer()
				inflight := make([]*dataflasks.Op, 0, window)
				for i := 0; i < b.N; i += window {
					inflight = inflight[:0]
					for j := i; j < min(i+window, b.N); j++ {
						inflight = append(inflight, start(j))
					}
					for _, op := range inflight {
						if err := op.Wait(ctx); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(node.WireStats().EncodeBytes-encoded)/float64(b.N), "wire_B/op")
			})
		}
	}
}

// --- substrate micro-benchmarks ---------------------------------------------

func BenchmarkMemoryStorePut(b *testing.B) {
	s := store.NewMemory()
	defer s.Close()
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Put(fmt.Sprintf("key%08d", i%10000), uint64(i), val)
	}
}

func BenchmarkMemoryStoreGetLatest(b *testing.B) {
	s := store.NewMemory()
	defer s.Close()
	val := make([]byte, 100)
	for i := 0; i < 10000; i++ {
		_ = s.Put(fmt.Sprintf("key%08d", i), 1, val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, _ = s.Get(fmt.Sprintf("key%08d", i%10000), store.Latest)
	}
}

func BenchmarkLogStorePut(b *testing.B) {
	s, err := store.OpenLog(b.TempDir(), store.LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Put(fmt.Sprintf("key%08d", i), 1, val)
	}
}

func BenchmarkLogStoreGetLatest(b *testing.B) {
	s, err := store.OpenLog(b.TempDir(), store.LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 100)
	for i := 0; i < 10000; i++ {
		_ = s.Put(fmt.Sprintf("key%08d", i), 1, val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, _ = s.Get(fmt.Sprintf("key%08d", i%10000), store.Latest)
	}
}

// BenchmarkStorePutFsync is the durable single-put path: concurrent
// writers, each blocked until its record is on stable storage, sharing
// fsyncs through the log engine's group commit.
func BenchmarkStorePutFsync(b *testing.B) {
	s, err := store.OpenLog(b.TempDir(), store.LogOptions{Fsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 100)
	var seq atomic.Uint64
	// Epidemic replication hands a node many concurrent writes; raise
	// the writer count so the run exercises group commit even on
	// single-core runners.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			if err := s.Put(fmt.Sprintf("key%08d", i), 1, val); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkLogStorePutBatch is the batched write path: 64 objects per
// PutBatch, one lock acquisition, one encoded append and one
// group-commit fsync per batch — against which BenchmarkStorePutFsync
// pays per object.
func BenchmarkLogStorePutBatch(b *testing.B) {
	s, err := store.OpenLog(b.TempDir(), store.LogOptions{Fsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 100)
	const batchSize = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objs := make([]store.Object, batchSize)
		for j := range objs {
			objs[j] = store.Object{Key: fmt.Sprintf("key%08d-%02d", i, j), Version: 1, Value: val}
		}
		if err := s.PutBatch(objs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(batchSize, "objs/op")
}

// BenchmarkShardPutBurst is the drain-and-commit write path: durable
// entry puts against the fsyncing log engine with 32 kept in flight on
// one shard, so the puts queued behind an fsync share the next one.
// puts/commit is puts_served over put_commits; a shard that stored one
// put per wake-up reads 1.
func BenchmarkShardPutBurst(b *testing.B) {
	res, err := lab.ShardPutBurst(lab.ShardPutBurstOptions{
		Dir: b.TempDir(), Shards: 1, InFlight: 32, Puts: b.N, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.PutsPerCommit, "puts/commit")
}

// BenchmarkTCPDeliver is the fabric's inbound path under fan-in: four
// peers stream small frames at one listener, whose four read loops each
// decode, re-learn the sender's (unchanged) address and hand the
// envelope over. The learn step is what used to take the fabric's write
// lock per frame.
func BenchmarkTCPDeliver(b *testing.B) {
	cfg := transport.TCPConfig{Codec: wire.BinaryCodec()}
	var got atomic.Int64
	done := make(chan struct{})
	target := int64(b.N)
	rx, err := transport.ListenTCP(1, "127.0.0.1:0", "", cfg, func(transport.Envelope) {
		if got.Add(1) == target {
			close(done)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	const peers = 4
	senders := make([]transport.Sender, peers)
	for i := range senders {
		tx, err := transport.ListenTCP(transport.NodeID(i+2), "127.0.0.1:0", "", cfg, func(transport.Envelope) {})
		if err != nil {
			b.Fatal(err)
		}
		defer tx.Close()
		tx.Learn(1, rx.Addr())
		senders[i] = tx.Sender()
	}
	msg := &core.GetRequest{Routing: core.Routing{ID: gossip.MakeRequestID(3, 1), Origin: 3, TTL: 4}, Key: "key00000001"}
	b.ResetTimer()
	for i, tx := range senders {
		n := b.N / peers
		if i == 0 {
			n += b.N % peers
		}
		go func(tx transport.Sender, n int) {
			for j := 0; j < n; j++ {
				if err := tx.Send(context.Background(), 1, msg); err != nil {
					b.Error(err)
					return
				}
			}
		}(tx, n)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		b.Fatalf("delivered %d of %d frames", got.Load(), b.N)
	}
}

// BenchmarkLogRecovery measures reopening (sequential replay + index
// rebuild) of a log holding 10k objects.
func BenchmarkLogRecovery(b *testing.B) {
	dir := b.TempDir()
	s, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 100)
	for i := 0; i < 10000; i++ {
		_ = s.Put(fmt.Sprintf("key%08d", i), 1, val)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := store.OpenLog(dir, store.LogOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if s.Count() != 10000 {
			b.Fatalf("recovered %d objects", s.Count())
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkLogForEach is the header walk behind every anti-entropy
// summary and push: 50k headers, a fifth of the keys holding several
// versions, visited in (key, version) order.
func BenchmarkLogForEach(b *testing.B) {
	s, err := store.OpenLog(b.TempDir(), store.LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const headers = 50000
	objs := make([]store.Object, 0, headers)
	for i := 0; len(objs) < headers; i++ {
		versions := 1
		if i%5 == 0 {
			versions = 6
		}
		for v := 1; v <= versions && len(objs) < headers; v++ {
			objs = append(objs, store.Object{Key: fmt.Sprintf("user%08d", i*7919%1000003), Version: uint64(v)})
		}
	}
	if err := s.PutBatch(objs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visited := 0
		if err := s.ForEach(func(string, uint64) bool { visited++; return true }); err != nil {
			b.Fatal(err)
		}
		if visited != headers {
			b.Fatalf("visited %d headers, want %d", visited, headers)
		}
	}
}

func BenchmarkCyclonShuffleRound(b *testing.B) {
	sink := transport.SenderFunc(func(context.Context, transport.NodeID, interface{}) error { return nil })
	c := pss.NewCyclon(1, pss.CyclonConfig{ViewSize: 20}, sink, sim.RNG(1, 1), nil)
	seeds := make([]transport.NodeID, 20)
	for i := range seeds {
		seeds[i] = transport.NodeID(i + 2)
	}
	c.Bootstrap(seeds)
	sample := make([]pss.Descriptor, 10)
	for i := range sample {
		sample[i] = pss.Descriptor{ID: transport.NodeID(100 + i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(context.Background())
		c.Handle(context.Background(), 2, &pss.ShuffleRequest{Sample: sample})
	}
}

func BenchmarkKeySlice(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = slicing.KeySlice(keys[i%len(keys)], 60)
	}
}

func BenchmarkDedupSeen(b *testing.B) {
	d := gossip.NewDedup(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Seen(gossip.RequestID(i % 16384))
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z := workload.NewZipfian(100000, 0.99)
	rng := sim.RNG(1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next(rng)
	}
}

func BenchmarkNodeHandlePut(b *testing.B) {
	sink := transport.SenderFunc(func(context.Context, transport.NodeID, interface{}) error { return nil })
	n := core.NewNode(1, core.Config{
		Slices: 1, Slicer: core.SlicerStatic, SystemSize: 1000, AntiEntropyEvery: -1,
	}, store.NewMemory(), sink)
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.HandleMessage(context.Background(), transport.Envelope{From: 2, To: 1, Msg: &core.PutRequest{
			Routing: core.Routing{ID: gossip.MakeRequestID(3, uint32(i)), TTL: 4, NoAck: true},
			Key:     fmt.Sprintf("key%08d", i%4096), Version: uint64(i), Value: val,
		}})
	}
}
