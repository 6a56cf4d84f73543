package dataflasks_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dataflasks"
)

// TestRangedAntiEntropyLiveCluster runs the range-fingerprinted repair
// rounds on a 4-node, 2-slice TCP cluster over the log engine. Preloaded
// and idle, every round the nodes answer is clean and the digest bytes
// they charge come to the opening sums alone — under 4 KB an exchange,
// with 4 000 headers on each node. Then a member is restarted on an
// empty data directory, and the same rounds bring it back to full
// replication.
func TestRangedAntiEntropyLiveCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster in -short mode")
	}
	const (
		period  = 25 * time.Millisecond // anti-entropy every 10th round
		objects = 8000
		digest  = "flasks_antientropy_digest_bytes_total"
		clean   = "flasks_antientropy_clean_rounds_total"
		differ  = "flasks_antientropy_differing_ranges_total"
	)
	cfg := dataflasks.Config{Slices: 2, SystemSize: 4, Seed: 47}
	dirs := make([]string, 4)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	nodes, seeds := startTwoSliceClusterIn(t, cfg, period, dirs)

	cl, err := dataflasks.ConnectClient("127.0.0.1:0", seeds, cfg)
	if err != nil {
		t.Fatalf("ConnectClient: %v", err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for base := 0; base < objects; base += 500 {
		batch := make([]dataflasks.Object, 500)
		for i := range batch {
			batch[i] = dataflasks.Object{Key: fmt.Sprintf("live-%05d", base+i), Version: 1, Value: []byte("value")}
		}
		if err := cl.PutBatch(ctx, batch); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	replicated := func() bool {
		total := 0
		for _, nd := range nodes {
			total += nd.StoredObjects()
		}
		return total == 2*objects
	}
	waitFor(t, ctx, period, "both replicas of every object", replicated)

	// Idle and converged: let the last in-flight repair settle, then
	// watch a window of rounds.
	time.Sleep(20 * period)
	before := nodeCounters(t, nodes, period, digest, clean, differ)
	time.Sleep(80 * period)
	after := nodeCounters(t, nodes, period, digest, clean, differ)
	var bytes, rounds, differing float64
	for i := range nodes {
		bytes += after[i][digest] - before[i][digest]
		rounds += after[i][clean] - before[i][clean]
		differing += after[i][differ] - before[i][differ]
	}
	if rounds < 8 || differing != 0 {
		t.Fatalf("idle window: %v clean rounds, %v differing sums; want every round clean", rounds, differing)
	}
	t.Logf("idle window: %.0f digest bytes over %v clean exchanges", bytes, rounds)
	if per := bytes / rounds; per > 4096 {
		t.Errorf("idle window: %.0f digest bytes over %v exchanges = %.0f B each, want <= 4096", bytes, rounds, per)
	}

	// Restart one member with nothing on disk.
	victim := nodes[3]
	held, slice := victim.StoredObjects(), victim.Slice()
	if err := victim.Close(); err != nil {
		t.Fatalf("close node %s: %v", victim.ID(), err)
	}
	nodeCfg := cfg
	nodeCfg.Capacity = 4
	reborn, err := dataflasks.StartNode(dataflasks.NodeConfig{
		ID: victim.ID(), Bind: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", DataDir: t.TempDir(),
		Config: nodeCfg, RoundPeriod: period, Seeds: seeds[:1],
	})
	if err != nil {
		t.Fatalf("restart node %s: %v", victim.ID(), err)
	}
	nodes[3] = reborn // the cluster's cleanup closes it
	if reborn.StoredObjects() != 0 {
		t.Fatalf("restarted node came up with %d objects on an empty directory", reborn.StoredObjects())
	}
	waitFor(t, ctx, period, "the restarted node to hold its slice again", func() bool {
		return reborn.Slice() == slice && reborn.StoredObjects() == held
	})
	if !replicated() {
		t.Errorf("after the repair the cluster holds %d + %d + %d + %d objects, want %d in all",
			nodes[0].StoredObjects(), nodes[1].StoredObjects(), nodes[2].StoredObjects(), nodes[3].StoredObjects(), 2*objects)
	}
}

// waitFor polls cond every period until it holds or ctx ends.
func waitFor(t *testing.T, ctx context.Context, period time.Duration, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(period):
		}
	}
}
