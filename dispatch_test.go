package dataflasks

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dataflasks/internal/core"
	"dataflasks/internal/store"
)

// TestDataPlaneDoesNotWaitForTheControlLoop: the fabric handler hands
// data-plane requests straight to their shard, so a put and a get on a
// slice member are answered while the control loop is not taking
// anything from its mailbox — here there is none at all, the limit of a
// slow Tick: behind the node's listener sits a core whose shards run and
// whose control plane nobody drives. Through a control mailbox (once the
// only route) both ops would time out.
func TestDataPlaneDoesNotWaitForTheControlLoop(t *testing.T) {
	cfg := Config{Slices: 1, SystemSize: 1, Slicer: StaticSlicer, Seed: 3}
	n, err := StartNode(NodeConfig{ID: 1, Bind: "127.0.0.1:0", RoundPeriod: 20 * time.Millisecond, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	coreCfg := cfg.coreConfig()
	coreCfg.AddressBook = n.net
	parked := core.NewNode(1, coreCfg, store.NewMemory(), n.net.Sender())
	parked.StartShards(context.Background())
	defer parked.StopShards()
	n.data.Store(parked)

	cl, err := ConnectClient("127.0.0.1:0", []string{fmt.Sprintf("1@%s", n.Addr())}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Put(ctx, "k", 1, []byte("v")); err != nil {
		t.Fatalf("put with the control loop parked: %v", err)
	}
	got, err := cl.Get(ctx, "k", 1)
	if err != nil || string(got) != "v" {
		t.Fatalf("get with the control loop parked = %q, %v", got, err)
	}
	if _, _, ok, _ := parked.Store().Get("k", 1); !ok {
		t.Error("the put was not served by the core behind the fabric handler")
	}
}
