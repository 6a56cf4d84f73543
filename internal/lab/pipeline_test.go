package lab

import (
	"fmt"
	"testing"

	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
	"dataflasks/internal/workload"
)

// batchCountingStore records how write traffic reaches the engine.
// The simulation is single-threaded, so plain counters suffice.
type batchCountingStore struct {
	store.Store
	putCalls   int
	batchCalls int
	batchSizes []int
}

func (s *batchCountingStore) Put(key string, version uint64, value []byte) error {
	s.putCalls++
	return s.Store.Put(key, version, value)
}

func (s *batchCountingStore) PutBatch(objs []store.Object) error {
	s.batchCalls++
	s.batchSizes = append(s.batchSizes, len(objs))
	return s.Store.PutBatch(objs)
}

// TestBatchPutConvergesViaSinglePutBatch pins the acceptance criterion
// of the batched write path: a client batch reaches the target slice's
// replicas, converges (every reached replica holds every object), and
// lands on each replica through exactly ONE store.PutBatch call —
// never as per-object puts.
func TestBatchPutConvergesViaSinglePutBatch(t *testing.T) {
	const (
		n      = 80
		slices = 4
		seed   = 11
	)
	stores := make(map[transport.NodeID]*batchCountingStore)
	c := NewCluster(ClusterConfig{
		N:    n,
		Seed: seed,
		Node: core.Config{
			Slices: slices,
			Slicer: core.SlicerStatic, // slice membership known instantly
			// Anti-entropy also calls PutBatch; keep it out of the count.
			AntiEntropyEvery: -1,
		},
		StoreFactory: func(id transport.NodeID) store.Store {
			s := &batchCountingStore{Store: store.NewMemory()}
			stores[id] = s
			return s
		},
	})
	c.Run(20) // fill PSS and intra views

	// Build a batch wholly owned by one slice, as the public client's
	// per-slice grouping produces.
	const target = int32(2)
	objs := make([]store.Object, 0, 48)
	for i := 0; len(objs) < 48; i++ {
		key := fmt.Sprintf("bulk%06d", i)
		if slicing.KeySlice(key, slices) == target {
			objs = append(objs, store.Object{Key: key, Version: 1, Value: []byte("payload")})
		}
	}

	cl := c.NewClient(client.Config{PutAcks: 1}, nil)
	var res *client.Result
	c.Engine.Schedule(0, func() {
		cl.StartPutBatch(objs, client.Opts{}, func(r client.Result) { res = &r })
	})
	c.Run(30) // deliver, ack, and let intra relays drain

	if res == nil {
		t.Fatal("batch put never completed")
	}
	if res.Err != nil {
		t.Fatalf("batch put failed: %v", res.Err)
	}

	sliceNodes, converged := 0, 0
	for _, node := range c.Nodes() {
		if node.Slice() != target {
			if got := node.Store().Count(); got != 0 {
				t.Errorf("off-slice node %s stored %d batch objects", node.ID(), got)
			}
			continue
		}
		sliceNodes++
		cs := stores[node.ID()]
		if node.Store().Count() == 0 {
			continue // flood w.h.p. coverage, not a guarantee
		}
		converged++
		if node.Store().Count() != len(objs) {
			t.Errorf("node %s holds %d of %d batch objects (partial batch application)",
				node.ID(), node.Store().Count(), len(objs))
		}
		if cs.putCalls != 0 {
			t.Errorf("node %s applied batch objects via %d individual Puts", node.ID(), cs.putCalls)
		}
		if cs.batchCalls != 1 || cs.batchSizes[0] != len(objs) {
			t.Errorf("node %s applied the batch via %d PutBatch calls (sizes %v), want one call of %d",
				node.ID(), cs.batchCalls, cs.batchSizes, len(objs))
		}
	}
	if sliceNodes == 0 {
		t.Fatal("no node claims the target slice")
	}
	// Replica convergence: the write flood reaches (nearly) the whole
	// slice; anti-entropy is off, so this is the raw dissemination.
	if converged*10 < sliceNodes*8 {
		t.Fatalf("batch converged on %d of %d slice nodes, want >= 80%%", converged, sliceNodes)
	}
}

// TestPipelineComparisonSpeedup holds E15, the headline claim of the
// async API: pipelined and batched puts complete the same workload at
// least 5x faster (virtual wall-clock) than one-blocking-op-at-a-time,
// at the same ack level.
func TestPipelineComparisonSpeedup(t *testing.T) {
	holdQuick(t, "pipeline")
}

// TestWorkloadPreloadBatch runs a read-mix workload whose preload goes
// through the batched client path, verifying reads then succeed
// against batch-loaded replicas.
func TestWorkloadPreloadBatch(t *testing.T) {
	c := NewCluster(ClusterConfig{
		N:    60,
		Seed: 3,
		Node: core.Config{Slices: 4},
	})
	stats := c.RunWorkload(WorkloadOptions{
		Ops:          30,
		Records:      40,
		Mix:          workload.MixC,
		PreloadBatch: true,
		Seed:         9,
	})
	if stats.Failed > stats.Ops/10 {
		t.Fatalf("reads over batch-preloaded data: %d of %d failed", stats.Failed, stats.Ops)
	}
}
