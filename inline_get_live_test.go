package dataflasks_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dataflasks"
	"dataflasks/internal/obs"
)

// TestInlineGetSeesPipelinedPut: a client that pipelines a put of key k
// and a get of k's latest version over one connection gets back the
// version it put or a newer one, every time — whether the node queued
// the get behind the put or served it inline on the read loop. Gets sent
// one at a time to the idle node are served inline, which
// flasks_inline_gets_total shows.
func TestInlineGetSeesPipelinedPut(t *testing.T) {
	cfg := dataflasks.Config{Slices: 1, Slicer: dataflasks.StaticSlicer, SystemSize: 1, Fsync: true}
	node, err := dataflasks.StartNode(dataflasks.NodeConfig{
		ID: 1, Bind: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", DataDir: t.TempDir(),
		RoundPeriod: 20 * time.Millisecond, Config: cfg,
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	defer node.Close()
	cl, err := dataflasks.ConnectClient("127.0.0.1:0", []string{fmt.Sprintf("1@%s", node.Addr())}, cfg)
	if err != nil {
		t.Fatalf("ConnectClient: %v", err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const waves, perWave = 25, 8
	version := uint64(0)
	for w := 0; w < waves; w++ {
		var puts, gets []*dataflasks.Op
		for i := 0; i < perWave; i++ {
			version++
			puts = append(puts, cl.PutAsync("k", version, []byte(fmt.Sprintf("v%d", version))))
			gets = append(gets, cl.GetLatestAsync("k"))
		}
		for i, get := range gets {
			if err := puts[i].Wait(ctx); err != nil {
				t.Fatalf("put: %v", err)
			}
			if err := get.Wait(ctx); err != nil {
				t.Fatalf("get: %v", err)
			}
			if sent := version - perWave + uint64(i) + 1; get.Version() < sent {
				t.Fatalf("get after put of version %d read version %d", sent, get.Version())
			}
		}
	}
	// A lone get finds the shard idle unless the shard goroutine, which
	// answered the get before it, has yet to let go of the shard: the
	// scrape between two gets gives it that time.
	inline := 0.0
	for i := 0; i < 100 && inline == 0; i++ {
		op := cl.GetLatestAsync("k")
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("lone get: %v", err)
		}
		if op.Version() != version {
			t.Fatalf("lone get read version %d, want %d", op.Version(), version)
		}
		_, body := scrape(t, node.HTTPAddr(), "/metrics")
		families, err := obs.ParseExposition([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if f := families["flasks_inline_gets_total"]; f != nil && len(f.Samples) > 0 {
			inline = f.Samples[0].Value
		}
	}
	if inline == 0 {
		t.Fatal("flasks_inline_gets_total still 0 after 100 lone gets to an idle node")
	}
}
