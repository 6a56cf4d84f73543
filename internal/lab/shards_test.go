package lab

import (
	"testing"
	"time"
)

// TestShardEquivalence pins the determinism claim behind the sharded
// runtime: a cluster running eight data shards per node must converge
// to exactly the same per-node store inventory — keys, versions,
// deletions — as a single-shard cluster fed the identical seeded
// workload. Any divergence means shard routing or the coalescing
// windows changed what the protocol computes, not just how fast.
func TestShardEquivalence(t *testing.T) {
	opts := ShardEquivalenceOptions{
		N: 12, Slices: 3, Keys: 60, Shards: 8,
		Period: 15 * time.Millisecond, Timeout: 60 * time.Second, Seed: 7,
	}
	if testing.Short() {
		opts.N, opts.Keys = 8, 24
	}
	res, err := ShardEquivalence(opts)
	if err != nil {
		t.Fatalf("ShardEquivalence: %v", err)
	}
	t.Logf("result=%+v", res)
	hold(t, ShardEquivalenceGate(res))
}

// TestShardScalingRuns smoke-tests the throughput experiment's shape:
// both shard counts must serve traffic and report sane rates. The ratio
// between them is report-only here, as it is for flaskbench on a host
// with fewer than four cores.
func TestShardScalingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timed benchmark; skipped in -short")
	}
	results := ShardScaling(ShardScalingOptions{
		Shards: []int{1, 4}, Keys: 256, Producers: 2,
		Duration: 150 * time.Millisecond, Seed: 7,
	})
	for _, r := range results {
		t.Logf("shards=%d ops=%d dropped=%d ops/sec=%.0f", r.Shards, r.Ops, r.Dropped, r.OpsPerSec)
	}
	hold(t, ShardScalingGate(results, false))
}
