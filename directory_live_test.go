package dataflasks_test

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"dataflasks"
	"dataflasks/internal/obs"
	"dataflasks/internal/slicing"
)

// nodeCounters scrapes the named counter families off every node, after
// the two rounds it takes every node to publish what it has counted.
func nodeCounters(t *testing.T, nodes []*dataflasks.Node, period time.Duration, names ...string) []map[string]float64 {
	t.Helper()
	time.Sleep(2 * period)
	out := make([]map[string]float64, len(nodes))
	for i, nd := range nodes {
		code, body := scrape(t, nd.HTTPAddr(), "/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics on node %s = %d", nd.ID(), code)
		}
		families, err := obs.ParseExposition([]byte(body))
		if err != nil {
			t.Fatalf("/metrics on node %s: %v", nd.ID(), err)
		}
		out[i] = make(map[string]float64, len(names))
		for _, name := range names {
			if f := families[name]; f != nil && len(f.Samples) > 0 {
				out[i][name] = f.Samples[0].Value
			}
		}
	}
	return out
}

// startTwoSliceCluster boots 4 TCP nodes (observability plane on) with
// distinct capacities and returns them, with their seed strings, once
// rank slicing has held two nodes per slice for 15 rounds. cfg.Slices
// must be 2.
func startTwoSliceCluster(t *testing.T, cfg dataflasks.Config, period time.Duration) ([]*dataflasks.Node, []string) {
	t.Helper()
	return startTwoSliceClusterIn(t, cfg, period, make([]string, 4))
}

// startTwoSliceClusterIn is startTwoSliceCluster with node i persisting
// under dataDirs[i] (empty: in memory). The cleanup closes whatever the
// returned slice holds when the test ends, so a test that restarts a
// node puts the new one in its place.
func startTwoSliceClusterIn(t *testing.T, cfg dataflasks.Config, period time.Duration, dataDirs []string) ([]*dataflasks.Node, []string) {
	t.Helper()
	const n = 4
	nodes := make([]*dataflasks.Node, 0, n)
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	})
	var seeds []string
	for i := 1; i <= n; i++ {
		nodeCfg := cfg
		nodeCfg.Capacity = float64(i) // distinct ranks: the 2 + 2 split is stable
		nc := dataflasks.NodeConfig{
			ID: dataflasks.NodeID(i), Bind: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
			DataDir: dataDirs[i-1], Config: nodeCfg, RoundPeriod: period,
		}
		if i > 1 {
			nc.Seeds = seeds[:1]
		}
		nd, err := dataflasks.StartNode(nc)
		if err != nil {
			t.Fatalf("StartNode %d: %v", i, err)
		}
		nodes = append(nodes, nd)
		seeds = append(seeds, fmt.Sprintf("%d@%s", i, nd.Addr()))
	}

	stable, deadline := 0, time.Now().Add(30*time.Second)
	var last [n]int32
	for stable < 15 {
		if time.Now().After(deadline) {
			t.Fatalf("slicing never settled on 2 + 2: %v", last)
		}
		time.Sleep(period)
		var now [n]int32
		perSlice := map[int32]int{}
		for i, nd := range nodes {
			now[i] = nd.Slice()
			perSlice[now[i]]++
		}
		if now == last && perSlice[0] == 2 && perSlice[1] == 2 {
			stable++
		} else {
			stable = 0
		}
		last = now
	}
	return nodes, seeds
}

// TestDirectoryLiveCluster drives a 4-node, 2-slice TCP cluster through
// the client's slice directory: once the directory has learned both
// slices, single-ack puts and gets enter their slice directly — no node
// relays anything, and both members of each slice take client requests —
// while a two-ack put still floods from a random contact and completes
// as it did before.
func TestDirectoryLiveCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster in -short mode")
	}
	const period = 40 * time.Millisecond
	cfg := dataflasks.Config{Slices: 2, SystemSize: 4, Seed: 31}
	nodes, seeds := startTwoSliceCluster(t, cfg, period)

	cl, err := dataflasks.ConnectClient("127.0.0.1:0", seeds, cfg)
	if err != nil {
		t.Fatalf("ConnectClient: %v", err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	version := uint64(0)
	round := func(ops int) {
		t.Helper()
		version++
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("live-%03d", i)
			if err := cl.Put(ctx, key, version, []byte("v")); err != nil {
				t.Fatalf("put %s v%d: %v", key, version, err)
			}
			if _, err := cl.Get(ctx, key, version); err != nil {
				t.Fatalf("get %s v%d: %v", key, version, err)
			}
		}
	}
	round(100) // warm-up: the directory learns both slices and their members

	const (
		directed = "flasks_requests_directed_total"
		flooded  = "flasks_requests_flooded_total"
		served   = "flasks_puts_served_total"
		relayed  = "flasks_coalesced_puts_total" // intra-slice copies among the served
	)
	before := nodeCounters(t, nodes, period, directed, flooded, served, relayed)
	hitsBefore := cl.DirectoryStats()
	round(100)
	after := nodeCounters(t, nodes, period, directed, flooded, served, relayed)
	stats := cl.DirectoryStats()

	for i, nd := range nodes {
		for _, name := range []string{directed, flooded} {
			if d := after[i][name] - before[i][name]; d != 0 {
				t.Errorf("node %s: %s grew by %v while the directory was warm", nd.ID(), name, d)
			}
		}
		entry := (after[i][served] - before[i][served]) - (after[i][relayed] - before[i][relayed])
		if entry <= 0 {
			t.Errorf("node %s (slice %d) took no client put: the directory pins its mate", nd.ID(), nd.Slice())
		}
	}
	if hits := stats.Hits - hitsBefore.Hits; hits != 200 {
		t.Errorf("directory hits in the window = %d, want all 200 requests", hits)
	}
	if stats.Fallbacks != hitsBefore.Fallbacks || stats.Evictions != 0 {
		t.Errorf("directory fell back or evicted on a stable cluster: %+v → %+v", hitsBefore, stats)
	}

	// The dependable path is untouched: a two-ack put floods from a
	// random contact and never asks the directory. (A random contact
	// that is itself a replica stores, acknowledges once and relays
	// intra-slice copies, which are not acknowledged — so on two slices
	// about half of these puts need a retry, as they always did; the
	// retry budget covers the run of bad draws 20 puts can see.)
	clean := 0
	const twoAck = 20
	for i := 0; i < twoAck; i++ {
		op := cl.PutAsync(fmt.Sprintf("two-ack-%02d", i), 1, []byte("v"),
			dataflasks.WithAcks(2), dataflasks.WithTimeout(500*time.Millisecond), dataflasks.WithRetries(8))
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("two-ack put %d: %v", i, err)
		}
		if op.Acks() < 2 {
			t.Errorf("two-ack put %d completed with %d acks", i, op.Acks())
		}
		if op.Retries() == 0 {
			clean++
		}
	}
	if clean == 0 {
		t.Errorf("none of %d two-ack puts completed on its first attempt", twoAck)
	}
	final := cl.DirectoryStats()
	if final.Hits != stats.Hits || final.Fallbacks < stats.Fallbacks+twoAck {
		t.Errorf("two-ack puts consulted the directory: %+v → %+v", stats, final)
	}

	// Killing a member costs the one op that next goes through it a
	// retry, not a stall: the timeout evicts it and the reads that follow
	// use its mate.
	victim := nodes[0]
	_ = victim.Close()
	retried := 0
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("live-%03d", i)
		if slicing.KeySlice(key, cfg.Slices) != victim.Slice() {
			continue
		}
		op := cl.GetAsync(key, version, dataflasks.WithTimeout(500*time.Millisecond), dataflasks.WithRetries(8))
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("get %s after the kill: %v", key, err)
		}
		if op.Retries() > 0 {
			retried++
		}
	}
	if retried != 1 {
		t.Errorf("%d reads retried after one member died, want exactly the one that found it dead", retried)
	}
	if ev := cl.DirectoryStats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want the dead member's", ev)
	}
}
