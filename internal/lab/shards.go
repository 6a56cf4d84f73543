// Experiment E19: the sharded data-plane runtime.
//
// Two claims are measured. Scaling: with the data plane partitioned
// across shard goroutines, one node's put/get throughput grows with
// cores instead of saturating one event loop — ShardScaling drives a
// single node's shards directly and reports ops/sec per shard count.
// Equivalence: sharding must not change what the protocol computes —
// ShardEquivalence runs the same seeded workload against a 1-shard
// and an 8-shard cluster and demands every node converge to an
// identical store inventory (keys, versions, deletions applied).
package lab

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"dataflasks"
	"dataflasks/internal/core"
	"dataflasks/internal/gossip"
	"dataflasks/internal/metrics"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// ShardScalingOptions sizes the single-node shard throughput bench.
type ShardScalingOptions struct {
	// Shards lists the shard counts to measure (e.g. 1 and 8).
	Shards []int
	// Keys is the preloaded keyspace the gets hit.
	Keys int
	// Producers is how many goroutines feed the shard mailboxes.
	Producers int
	// Duration is the measurement window per shard count.
	Duration time.Duration
	// Seed keys the node's deterministic RNG lanes.
	Seed uint64
}

// ShardScalingResult is one shard count's measurement.
type ShardScalingResult struct {
	Shards    int           `json:"shards"`
	Ops       uint64        `json:"ops"`
	Dropped   uint64        `json:"dropped"`
	Elapsed   time.Duration `json:"elapsed_nanos"`
	OpsPerSec float64       `json:"ops_per_sec"`
}

// ShardScaling measures one node's data-plane throughput as its shard
// count grows. The node owns a single slice (static slicer, k=1) so
// every request is served locally: the measured work is the real
// handler path — dedup, route lookup, store access, reply build —
// with the wire swallowed by a no-op sender. Producers dispatch a
// 90/10 get/put mix through DispatchData exactly as a live fabric
// would; ops counts requests the shards actually served.
func ShardScaling(opts ShardScalingOptions) []ShardScalingResult {
	results := make([]ShardScalingResult, 0, len(opts.Shards))
	for _, shards := range opts.Shards {
		results = append(results, shardScalingRun(opts, shards))
	}
	return results
}

func shardScalingRun(opts ShardScalingOptions, shards int) ShardScalingResult {
	st := store.NewMemory()
	discard := transport.SenderFunc(func(context.Context, transport.NodeID, interface{}) error { return nil })
	n := core.NewNode(1, core.Config{
		Slices:     1,
		Slicer:     core.SlicerStatic,
		DataShards: shards,
		Seed:       opts.Seed,
	}, st, discard)

	val := make([]byte, 128)
	key := func(i int) string { return fmt.Sprintf("bench-%d", i) }
	for i := 0; i < opts.Keys; i++ {
		if err := st.Put(key(i), 1, val); err != nil {
			panic(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.StartShards(ctx)

	stop := make(chan struct{})
	done := make(chan struct{}, opts.Producers)
	start := time.Now()
	for p := 0; p < opts.Producers; p++ {
		go func(p int) {
			defer func() { done <- struct{}{} }()
			// Per-producer id lane keeps request ids unique without
			// cross-producer coordination.
			base := uint64(p+1) << 40
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key(int(i) % opts.Keys)
				var msg interface{}
				if i%10 == 0 {
					msg = &core.PutRequest{
						Routing: core.Routing{ID: gossip.RequestID(base | i), NoAck: true, TTL: core.TTLUnset},
						Key:     k, Version: i, Value: val,
					}
				} else {
					msg = &core.GetRequest{
						Routing: core.Routing{ID: gossip.RequestID(base | i), Origin: 2, TTL: core.TTLUnset},
						Key:     k, Version: store.Latest,
					}
				}
				n.DispatchData(transport.Envelope{From: 2, To: 1, Msg: msg})
			}
		}(p)
	}
	time.Sleep(opts.Duration)
	close(stop)
	for p := 0; p < opts.Producers; p++ {
		<-done
	}
	n.StopShards()
	elapsed := time.Since(start)

	m := n.Metrics()
	ops := m.Get(metrics.GetsServed) + m.Get(metrics.PutsServed)
	return ShardScalingResult{
		Shards:    shards,
		Ops:       ops,
		Dropped:   n.ShardDropped(),
		Elapsed:   elapsed,
		OpsPerSec: float64(ops) / elapsed.Seconds(),
	}
}

// ShardPutBurstOptions sizes the drain-and-commit measurement.
type ShardPutBurstOptions struct {
	// Dir is the log engine's directory (the caller's temp dir).
	Dir string
	// Shards is the node's DataShards.
	Shards int
	// InFlight is how many entry puts are kept unacknowledged.
	InFlight int
	// Puts stops the run after this many puts, Duration after this long;
	// whichever is set and comes first.
	Puts     int
	Duration time.Duration
	// Seed keys the node's deterministic RNG lanes.
	Seed uint64
}

// ShardPutBurstResult is one burst run's measurement.
type ShardPutBurstResult struct {
	Shards        int           `json:"shards"`
	Puts          uint64        `json:"puts"`
	Commits       uint64        `json:"commits"`
	PutsPerCommit float64       `json:"puts_per_commit"`
	AckFrames     uint64        `json:"ack_frames"`
	AcksPerFrame  float64       `json:"acks_per_frame"`
	Elapsed       time.Duration `json:"elapsed_nanos"`
	OpsPerSec     float64       `json:"ops_per_sec"`
}

// ShardPutBurst measures what pipelining buys a durable write path: one
// node (single slice, log engine, Fsync on) is fed slice-entry puts
// through DispatchData with InFlight of them unacknowledged at any
// time, the next issued as each PutAck leaves. A node that handled one
// put per wake-up would pay one group-commit wait per put whatever the
// window; a wake-up commits a run at a time, across every shard it took,
// so puts per commit (puts_served over put_commits, the counters /metrics
// exports) rises with the puts queued behind each fsync however many
// shards they hash to, and so do acks per frame: a run's acks leave as
// one reply batch.
func ShardPutBurst(opts ShardPutBurstOptions) (ShardPutBurstResult, error) {
	st, err := store.OpenLog(opts.Dir, store.LogOptions{Fsync: true})
	if err != nil {
		return ShardPutBurstResult{}, err
	}
	defer st.Close()
	// One slot per unacknowledged put: taken before the dispatch, given
	// back by the fabric for every ack that leaves the node, alone or in a
	// reply batch.
	slots := make(chan struct{}, opts.InFlight)
	var ackFrames atomic.Uint64
	acks := transport.SenderFunc(func(_ context.Context, _ transport.NodeID, msg interface{}) error {
		acked := 0
		switch m := msg.(type) {
		case *core.PutAck:
			acked = 1
		case *core.Replies:
			acked = len(m.Msgs) // the burst sends puts alone: every answer is an ack
		}
		if acked > 0 {
			ackFrames.Add(1)
		}
		for ; acked > 0; acked-- {
			<-slots
		}
		return nil
	})
	n := core.NewNode(1, core.Config{
		Slices:     1,
		Slicer:     core.SlicerStatic,
		DataShards: opts.Shards,
		Seed:       opts.Seed,
	}, st, acks)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.StartShards(ctx)
	defer n.StopShards()

	val := make([]byte, 128)
	stalled := time.NewTimer(10 * time.Second)
	defer stalled.Stop()
	start := time.Now()
	for i := 1; (opts.Puts <= 0 || i <= opts.Puts) && (opts.Duration <= 0 || time.Since(start) < opts.Duration); i++ {
		select {
		case slots <- struct{}{}:
		case <-stalled.C:
			return ShardPutBurstResult{}, fmt.Errorf("lab: put burst stalled: %d puts in flight got no ack for 10s", opts.InFlight)
		}
		stalled.Reset(10 * time.Second)
		n.DispatchData(transport.Envelope{From: 2, To: 1, Msg: &core.PutRequest{
			Routing: core.Routing{ID: gossip.MakeRequestID(2, uint32(i)), Origin: 2, TTL: core.TTLUnset},
			Key:     fmt.Sprintf("burst-%d", i), Version: 1, Value: val,
		}})
	}
	n.StopShards()
	elapsed := time.Since(start)

	m := n.Metrics()
	res := ShardPutBurstResult{
		Shards:    opts.Shards,
		Puts:      m.Get(metrics.PutsServed),
		Commits:   m.Get(metrics.PutCommits),
		AckFrames: ackFrames.Load(),
		Elapsed:   elapsed,
	}
	if res.Commits > 0 {
		res.PutsPerCommit = float64(res.Puts) / float64(res.Commits)
	}
	if res.AckFrames > 0 {
		res.AcksPerFrame = float64(res.Puts) / float64(res.AckFrames)
	}
	res.OpsPerSec = float64(res.Puts) / elapsed.Seconds()
	return res, nil
}

// ShardEquivalenceOptions sizes the sharded-vs-unsharded cluster
// comparison.
type ShardEquivalenceOptions struct {
	// N is the cluster size, Slices the slice count.
	N, Slices int
	// Keys is the workload keyspace; each key gets a few versions and
	// some keys are deleted again.
	Keys int
	// Shards is the sharded cluster's DataShards (the baseline runs 1).
	Shards int
	// Period is the gossip round period.
	Period time.Duration
	// Timeout bounds the convergence wait per cluster pair.
	Timeout time.Duration
	// Seed drives both clusters identically.
	Seed uint64
}

// ShardEquivalenceResult reports the comparison's verdict.
type ShardEquivalenceResult struct {
	Equal bool `json:"equal"`
	// Nodes is how many node stores were compared.
	Nodes int `json:"nodes"`
	// Objects is the converged object-version total per cluster.
	Objects int `json:"objects"`
	// Waited is how long convergence took.
	Waited time.Duration `json:"waited_nanos"`
	// Mismatch names the first diverging node, empty when Equal.
	Mismatch string `json:"mismatch,omitempty"`
}

// ShardEquivalence runs one seeded workload — versioned puts, batch
// puts, deletes, and delete batches whose keys span a node's shards —
// against two identically-configured clusters that
// differ only in DataShards (1 vs opts.Shards), waits for both to
// converge, and compares every node's store inventory. The static
// slicer pins node-to-slice assignment to the node id, so converged
// stores must match node by node: same keys, same versions, deletions
// equally absent.
//
// Deletes need care: anti-entropy repairs by pushing objects a
// slice-mate is missing and carries no deletion record, so a replica
// the delete flood missed resurrects the object on everyone else —
// whether a deleted version survives depends on flood-vs-repair
// timing, not on the shard count. The driver therefore re-issues each
// delete until no replica holds the version; once globally absent,
// anti-entropy has nothing left to push and the outcome is pinned.
func ShardEquivalence(opts ShardEquivalenceOptions) (ShardEquivalenceResult, error) {
	if opts.Period <= 0 {
		opts.Period = 20 * time.Millisecond
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}

	run := func(shards int) (_ *dataflasks.Cluster, err error) {
		cluster, err := dataflasks.NewCluster(opts.N, dataflasks.Config{
			Slices:     opts.Slices,
			SystemSize: opts.N,
			Slicer:     dataflasks.StaticSlicer,
			DataShards: shards,
			Seed:       opts.Seed,
		}, dataflasks.WithRoundPeriod(opts.Period))
		if err != nil {
			return nil, err
		}
		defer func() {
			if err != nil { // whichever step below failed
				cluster.Stop()
			}
		}()
		if err := cluster.Start(); err != nil {
			return nil, err
		}
		cl, err := cluster.NewClient()
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		defer cancel()
		key := func(i int) string { return fmt.Sprintf("eq-%d", i) }
		// Two versions per key, written one by one and as per-slice
		// batches; every third key loses its first version again.
		for i := 0; i < opts.Keys; i++ {
			if err := cl.Put(ctx, key(i), 1, []byte(key(i))); err != nil {
				return nil, fmt.Errorf("put %s: %w", key(i), err)
			}
		}
		batch := make([]dataflasks.Object, 0, opts.Keys)
		for i := 0; i < opts.Keys; i++ {
			batch = append(batch, dataflasks.Object{Key: key(i), Version: 2, Value: []byte("v2")})
		}
		if err := cl.PutBatch(ctx, batch); err != nil {
			return nil, fmt.Errorf("putbatch: %w", err)
		}
		// Drive every third key's first version to global absence:
		// re-issue the delete while any replica still holds it (see the
		// resurrection note above). Each retry is a fresh request id,
		// so per-shard dedup does not swallow it.
		for i := 0; i < opts.Keys; i += 3 {
			for cluster.ReplicaCount(key(i), 1) > 0 {
				if err := cl.Delete(ctx, key(i), 1); err != nil {
					return nil, fmt.Errorf("delete %s: %w", key(i), err)
				}
				if ctx.Err() != nil {
					return nil, fmt.Errorf("delete %s: %w", key(i), ctx.Err())
				}
				time.Sleep(opts.Period)
			}
		}
		// A third version of every fourth key, then one delete batch of
		// them all: per slice one message whose keys span the shards of
		// the nodes that apply it. Re-issued, like the single deletes,
		// for what some replica still holds.
		var spanning []dataflasks.Object
		for i := 1; i < opts.Keys; i += 4 {
			spanning = append(spanning, dataflasks.Object{Key: key(i), Version: 3, Value: []byte("v3")})
		}
		if err := cl.PutBatch(ctx, spanning); err != nil {
			return nil, fmt.Errorf("putbatch v3: %w", err)
		}
		for {
			var left []dataflasks.KeyVersion
			for _, o := range spanning {
				if cluster.ReplicaCount(o.Key, 3) > 0 {
					left = append(left, dataflasks.KeyVersion{Key: o.Key, Version: 3})
				}
			}
			if len(left) == 0 {
				break
			}
			if _, err := cl.DeleteBatch(ctx, left); err != nil {
				return nil, fmt.Errorf("delete batch of %d: %w", len(left), err)
			}
			if ctx.Err() != nil {
				return nil, fmt.Errorf("delete batch: %w", ctx.Err())
			}
			time.Sleep(opts.Period)
		}
		return cluster, nil
	}

	base, err := run(1)
	if err != nil {
		return ShardEquivalenceResult{}, err
	}
	defer base.Stop()
	sharded, err := run(opts.Shards)
	if err != nil {
		return ShardEquivalenceResult{}, err
	}
	defer sharded.Stop()

	// Convergence: poll until every node's inventory matches across the
	// two clusters (anti-entropy keeps spreading replicas until the
	// slice holds everything), or the timeout reports the first
	// mismatch.
	start := time.Now()
	deadline := start.Add(opts.Timeout)
	res := ShardEquivalenceResult{Nodes: opts.N}
	for {
		equal := true
		objects := 0
		res.Mismatch = ""
		for _, id := range base.NodeIDs() {
			a, err := base.DumpStore(id)
			if err != nil {
				return res, err
			}
			b, err := sharded.DumpStore(id)
			if err != nil {
				return res, err
			}
			if !reflect.DeepEqual(a, b) {
				equal = false
				res.Mismatch = id.String()
				break
			}
			for _, vs := range a {
				objects += len(vs)
			}
		}
		if equal && objects > 0 {
			res.Equal = true
			res.Objects = objects
			res.Waited = time.Since(start)
			return res, nil
		}
		if time.Now().After(deadline) {
			res.Waited = time.Since(start)
			return res, nil
		}
		time.Sleep(opts.Period)
	}
}

// ShardsResult is E19's three measurements.
type ShardsResult struct {
	Cores int `json:"cores"`
	// GateEnforced says whether the host had the cores (>= 4) for the
	// scaling ratio to mean anything; below that it is report-only —
	// goroutines cannot outrun one core.
	GateEnforced bool                   `json:"gate_enforced"`
	Scaling      []ShardScalingResult   `json:"scaling"`
	Ratio        float64                `json:"ratio"`
	Burst        []ShardPutBurstResult  `json:"burst"`
	Equivalence  ShardEquivalenceResult `json:"equivalence"`
}

func runShards(w io.Writer, p Params) Report {
	title(w, "E19: data-plane sharding — throughput scaling and state equivalence")
	res := ShardsResult{Cores: runtime.GOMAXPROCS(0)}
	res.GateEnforced = res.Cores >= 4

	scaleOpts := ShardScalingOptions{
		Shards: []int{1, 8}, Keys: 4096, Producers: 4,
		Duration: 2 * time.Second, Seed: p.Seed,
	}
	eqOpts := ShardEquivalenceOptions{
		N: 16, Slices: 4, Keys: 90, Shards: 8, Seed: p.Seed,
	}
	if p.Quick {
		scaleOpts.Duration = 500 * time.Millisecond
		eqOpts = ShardEquivalenceOptions{
			N: 10, Slices: 3, Keys: 36, Shards: 8, Seed: p.Seed,
		}
	}

	res.Scaling = ShardScaling(scaleOpts)
	fmt.Fprintf(w, "%8s %12s %10s %14s\n", "shards", "ops", "dropped", "ops/sec")
	for _, r := range res.Scaling {
		fmt.Fprintf(w, "%8d %12d %10d %14.0f\n", r.Shards, r.Ops, r.Dropped, r.OpsPerSec)
	}
	res.Ratio = shardScalingRatio(res.Scaling)
	fmt.Fprintf(w, "scaling: %d shards serve %.2fx the single-shard rate (%d cores, gate %s)\n",
		res.Scaling[len(res.Scaling)-1].Shards, res.Ratio, res.Cores, map[bool]string{true: "enforced", false: "report-only"}[res.GateEnforced])
	broken := ShardScalingGate(res.Scaling, res.GateEnforced)

	fmt.Fprintf(w, "burst: 32 entry puts in flight, log engine, fsync on\n%8s %12s %10s %12s %11s %14s\n",
		"shards", "puts", "commits", "puts/commit", "acks/frame", "ops/sec")
	burst := func() error {
		dir, err := os.MkdirTemp("", "flaskbench-burst-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		for _, shards := range scaleOpts.Shards {
			r, err := ShardPutBurst(ShardPutBurstOptions{
				Dir: filepath.Join(dir, strconv.Itoa(shards)), Shards: shards,
				InFlight: 32, Duration: scaleOpts.Duration, Seed: p.Seed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%8d %12d %10d %12.2f %11.2f %14.0f\n", r.Shards, r.Puts, r.Commits, r.PutsPerCommit, r.AcksPerFrame, r.OpsPerSec)
			res.Burst = append(res.Burst, r)
		}
		return nil
	}
	if err := burst(); err != nil {
		broken = append(broken, "burst: "+err.Error())
	} else {
		broken = append(broken, ShardBurstGate(res.Burst)...)
	}

	var err error
	if res.Equivalence, err = ShardEquivalence(eqOpts); err != nil {
		return Report{res, append(broken, "equivalence: "+err.Error())}
	}
	eq := res.Equivalence
	fmt.Fprintf(w, "equivalence: equal=%v nodes=%d objects=%d waited=%s\n",
		eq.Equal, eq.Nodes, eq.Objects, eq.Waited.Round(time.Millisecond))
	return Report{res, append(broken, ShardEquivalenceGate(eq)...)}
}

// shardScalingRatio is the last shard count's rate over the first's.
func shardScalingRatio(results []ShardScalingResult) float64 {
	if results[0].OpsPerSec <= 0 {
		return 0
	}
	return results[len(results)-1].OpsPerSec / results[0].OpsPerSec
}

// ShardScalingGate is ShardScaling's: every shard count served traffic
// at a sane rate, and — only where enforce says the host has the cores
// for it — the largest count (8 in E19) clears 2x the single-shard rate.
func ShardScalingGate(results []ShardScalingResult, enforce bool) []string {
	var g gate
	for _, r := range results {
		g.must(r.Ops > 0 && r.OpsPerSec > 0, "shards=%d served %d requests at %.0f ops/sec", r.Shards, r.Ops, r.OpsPerSec)
	}
	ratio := shardScalingRatio(results)
	g.must(!enforce || ratio >= 2, "%d-shard speedup %.2fx < 2x", results[len(results)-1].Shards, ratio)
	return g
}

// ShardBurstGate is ShardPutBurst's: a shard with every in-flight put in
// its own mailbox (the first row) commits over one put per store write,
// and sends over one ack per frame; and since a wake-up runs every idle
// shard with queued puts, the puts spread over more shards (the other
// rows) still commit and ack at least half as many per write and frame.
func ShardBurstGate(burst []ShardPutBurstResult) []string {
	var g gate
	b := burst[0]
	g.must(b.PutsPerCommit >= 1.5, "%.2f puts per commit < 1.5 with the puts in flight on %d shard", b.PutsPerCommit, b.Shards)
	g.must(b.AcksPerFrame >= 1.5, "%.2f acks per ack frame < 1.5 with the puts in flight on %d shard", b.AcksPerFrame, b.Shards)
	for _, r := range burst[1:] {
		g.must(r.PutsPerCommit >= b.PutsPerCommit/2, "%.2f puts per commit on %d shards < half the %.2f on %d", r.PutsPerCommit, r.Shards, b.PutsPerCommit, b.Shards)
		g.must(r.AcksPerFrame >= b.AcksPerFrame/2, "%.2f acks per ack frame on %d shards < half the %.2f on %d", r.AcksPerFrame, r.Shards, b.AcksPerFrame, b.Shards)
	}
	return g
}

// ShardEquivalenceGate is ShardEquivalence's: the sharded cluster
// converged to the single-shard one's stores, and they were not empty.
func ShardEquivalenceGate(eq ShardEquivalenceResult) []string {
	if !eq.Equal {
		return []string{fmt.Sprintf("sharded cluster diverged: first mismatch at node %s after %s", eq.Mismatch, eq.Waited)}
	}
	if eq.Objects == 0 {
		return []string{"converged on empty stores — workload never landed"}
	}
	return nil
}
