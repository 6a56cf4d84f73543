package dataflasks_test

import (
	"context"
	"fmt"
	"net/http"
	"slices"
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
	return scrapeCounters(t, nodes, names...)
}

// scrapeCounters scrapes the named counter families off every node now:
// what a round publishes is a round behind, the data shards' counters
// are not.
func scrapeCounters(t *testing.T, nodes []*dataflasks.Node, names ...string) []map[string]float64 {
	t.Helper()
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
// relays anything, and over the client's ticks both members of each
// slice take client requests, one contact per slice per tick — while a
// two-ack put still floods from a random contact and completes as it
// did before.
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
		gets     = "flasks_gets_served_total"
	)
	// The client draws a slice's contact once per 500 ms tick, and a
	// round takes a fraction of one: rounds go on until every node has
	// been a contact, which takes at least two ticks per slice.
	before := nodeCounters(t, nodes, period, directed, flooded, served, relayed)
	hitsBefore := cl.DirectoryStats()
	var after []map[string]float64
	rounds, deadline := 0, time.Now().Add(time.Minute)
	for {
		round(100)
		rounds++
		after = nodeCounters(t, nodes, period, directed, flooded, served, relayed)
		idle := 0
		for i := range nodes {
			if (after[i][served]-before[i][served])-(after[i][relayed]-before[i][relayed]) <= 0 {
				idle++
			}
		}
		if idle == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds %d nodes still took no client put: the directory never draws them", rounds, idle)
		}
	}
	t.Logf("every node was a contact within %d rounds", rounds)
	stats := cl.DirectoryStats()
	for i, nd := range nodes {
		for _, name := range []string{directed, flooded} {
			if d := after[i][name] - before[i][name]; d != 0 {
				t.Errorf("node %s: %s grew by %v while the directory was warm", nd.ID(), name, d)
			}
		}
	}
	if hits, want := stats.Hits-hitsBefore.Hits, uint64(200*rounds); hits != want {
		t.Errorf("directory hits in the window = %d, want all %d requests", hits, want)
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

	// Killing the member a slice is pinned to costs the one op that next
	// goes through it a retry, not a stall: the timeout evicts it and the
	// reads that follow use its mate. One get names the pin: the member
	// whose gets_served it moves.
	slice := nodes[0].Slice()
	var keys []string
	for i := 0; i < 100; i++ {
		if key := fmt.Sprintf("live-%03d", i); slicing.KeySlice(key, cfg.Slices) == slice {
			keys = append(keys, key)
		}
	}
	getsBefore := scrapeCounters(t, nodes, gets)
	if _, err := cl.Get(ctx, keys[0], version); err != nil {
		t.Fatalf("get %s: %v", keys[0], err)
	}
	getsAfter := scrapeCounters(t, nodes, gets)
	var victim *dataflasks.Node
	answered := 0
	for i, nd := range nodes {
		if getsAfter[i][gets] > getsBefore[i][gets] {
			victim = nd
			answered++
		}
	}
	if answered != 1 || victim.Slice() != slice {
		t.Fatalf("the get moved gets_served on %d nodes, want one member of slice %d: %v → %v", answered, slice, getsBefore, getsAfter)
	}
	var mate dataflasks.NodeID
	for _, nd := range nodes {
		if nd != victim && nd.Slice() == slice {
			mate = nd.ID()
		}
	}
	if m := dataflasks.DirectoryMembers(cl, slice); !slices.Contains(m, victim.ID()) || !slices.Contains(m, mate) {
		t.Fatalf("directory members of slice %d = %v, want %s and its mate %s", slice, m, victim.ID(), mate)
	}
	_ = victim.Close()
	evictionsBefore := cl.DirectoryStats().Evictions

	// Reads go on until the dead member has been found and three more
	// ticks have passed: should the tick have turned between the naming
	// get and the kill, the draws find the dead member later, but no
	// read may find it twice.
	retried, settled := 0, time.Time{}
	deadline = time.Now().Add(time.Minute)
	for i := 0; settled.IsZero() || time.Now().Before(settled); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no read found the dead member %s in a minute", victim.ID())
		}
		key := keys[i%len(keys)]
		op := cl.GetAsync(key, version, dataflasks.WithTimeout(500*time.Millisecond), dataflasks.WithRetries(8))
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("get %s after the kill: %v", key, err)
		}
		if op.Retries() > 0 {
			retried++
			t.Logf("read %d after the kill retried", i)
			if settled.IsZero() {
				settled = time.Now().Add(1500 * time.Millisecond)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if retried != 1 {
		t.Errorf("%d reads retried after the pinned member died, want exactly the one that found it dead", retried)
	}
	// One eviction, and it named the dead member: the slice keeps its
	// live mate.
	if ev := cl.DirectoryStats().Evictions - evictionsBefore; ev != 1 {
		t.Errorf("evictions = %d after the kill of %s, want its one", ev, victim.ID())
	}
	if m := dataflasks.DirectoryMembers(cl, slice); slices.Contains(m, victim.ID()) || !slices.Contains(m, mate) {
		t.Errorf("directory members of slice %d after the kill of %s = %v, want its mate %s and not it", slice, victim.ID(), m, mate)
	}
}
