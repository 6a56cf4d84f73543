package lab

import (
	"testing"

	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/store"
	"dataflasks/internal/workload"
)

func smallCluster(t *testing.T, n, slices int, seed uint64) *Cluster {
	t.Helper()
	return NewCluster(ClusterConfig{
		N:    n,
		Seed: seed,
		Node: core.Config{Slices: slices},
	})
}

func TestClusterSlicingConverges(t *testing.T) {
	c := smallCluster(t, 100, 5, 7)
	c.Run(30)

	sizes := c.SliceSizes()
	if n, ok := sizes[-1]; ok && n > 0 {
		t.Fatalf("after 30 rounds %d nodes still undecided: %v", n, sizes)
	}
	// Every slice should be populated and roughly balanced (20 ± 15).
	for s := int32(0); s < 5; s++ {
		if sizes[s] < 5 || sizes[s] > 35 {
			t.Errorf("slice %d has %d members, want 5..35 of 100: %v", s, sizes[s], sizes)
		}
	}
	if acc := c.SliceAccuracy(); acc < 0.6 {
		t.Errorf("slice accuracy %.2f, want >= 0.6", acc)
	}
}

func TestClusterPutGetRoundTrip(t *testing.T) {
	c := smallCluster(t, 100, 5, 11)
	cl := c.NewClient(client.Config{}, nil)
	c.Run(30)

	var putDone, getDone client.Result
	cl.StartPutOpts("alpha", 1, []byte("value-1"), client.Opts{}, func(r client.Result) { putDone = r })
	c.Run(10)
	if putDone.Err != nil {
		t.Fatalf("put failed: %v", putDone.Err)
	}

	replicas := c.ReplicaCount("alpha", 1)
	if replicas < 5 {
		t.Errorf("object replicated to %d nodes, want >= 5 (slice size ~20)", replicas)
	}

	cl.StartGetOpts("alpha", store.Latest, client.Opts{}, func(r client.Result) { getDone = r })
	c.Run(10)
	if getDone.Err != nil {
		t.Fatalf("get failed: %v", getDone.Err)
	}
	if string(getDone.Value) != "value-1" {
		t.Fatalf("get returned %q, want %q", getDone.Value, "value-1")
	}
	if getDone.Version != 1 {
		t.Fatalf("get returned version %d, want 1", getDone.Version)
	}
}

func TestClusterVersionedReads(t *testing.T) {
	c := smallCluster(t, 80, 4, 13)
	cl := c.NewClient(client.Config{}, nil)
	c.Run(30)

	for v := uint64(1); v <= 3; v++ {
		val := []byte{byte('a' + v)}
		cl.StartPutOpts("k", v, val, client.Opts{}, nil)
		c.Run(8)
	}

	var r1, rLatest client.Result
	cl.StartGetOpts("k", 1, client.Opts{}, func(r client.Result) { r1 = r })
	cl.StartGetOpts("k", store.Latest, client.Opts{}, func(r client.Result) { rLatest = r })
	c.Run(10)

	if r1.Err != nil || r1.Version != 1 {
		t.Errorf("versioned get: err=%v version=%d, want version 1", r1.Err, r1.Version)
	}
	if rLatest.Err != nil || rLatest.Version != 3 {
		t.Errorf("latest get: err=%v version=%d, want version 3", rLatest.Err, rLatest.Version)
	}
}

// TestWorkloadPreloadDirect drives a read-only workload over a key
// space bulk-loaded straight into the slice owners' stores (PutBatch
// per node), verifying the direct preload seeds reads the epidemic
// path can serve.
func TestWorkloadPreloadDirect(t *testing.T) {
	c := smallCluster(t, 100, 5, 17)
	stats := c.RunWorkload(WorkloadOptions{
		Ops:           30,
		Mix:           workload.MixC, // read only
		Records:       40,
		PreloadDirect: true,
		Seed:          5,
	})
	if stats.OK < stats.Ops*8/10 {
		t.Fatalf("reads over direct preload: ok=%d failed=%d of %d", stats.OK, stats.Failed, stats.Ops)
	}
	// Every record must be replicated: each key's slice owners were
	// batch-seeded before the measured phase.
	for i := 0; i < 40; i++ {
		if c.ReplicaCount(workload.Key(i), 1) == 0 {
			t.Fatalf("record %d not present on any node after direct preload", i)
		}
	}
}

// TestClusterDeterminism runs one seed twice and demands the same
// per-node message counts, for single puts and for the batched preload
// (groups for several slices through StartPutBatch, whose issue order
// must be the seed's, not a map's).
func TestClusterDeterminism(t *testing.T) {
	puts := func() []uint64 {
		c := smallCluster(t, 60, 4, 99)
		cl := c.NewClient(client.Config{}, nil)
		c.Run(20)
		for i := 0; i < 5; i++ {
			cl.StartPutOpts(string(rune('a'+i)), 1, []byte{byte(i)}, client.Opts{}, nil)
		}
		c.Run(15)
		return c.MessagesPerNode()
	}
	batches := func() []uint64 {
		c := smallCluster(t, 60, 4, 99)
		cl := c.NewClient(client.Config{}, c.RandomLB())
		c.Run(20)
		c.preloadBatch(cl, map[string]uint64{}, WorkloadOptions{Records: 40, ValueSize: 8, Drain: 15})
		return c.MessagesPerNode()
	}
	for _, leg := range []struct {
		name string
		run  func() []uint64
	}{{"puts", puts}, {"batched puts", batches}} {
		// Map order was the bug: a few runs, since two can agree by luck.
		a := leg.run()
		for again := 0; again < 4; again++ {
			b := leg.run()
			if len(a) != len(b) {
				t.Fatalf("%s: different population: %d vs %d", leg.name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: node %d diverged: %d vs %d messages", leg.name, i, a[i], b[i])
				}
			}
		}
	}
}
