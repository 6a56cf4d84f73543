package dataflasks

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dataflasks/internal/core"
)

// TestDataPlaneDoesNotWaitForTheControlLoop: the fabric handler hands
// data-plane requests straight to their shard, so a put and a get on a
// slice member are answered while the control loop is not taking
// anything from its mailbox — here it is parked for good, the limit of
// a slow Tick. Through the mailbox (the parent's only route) both ops
// would time out.
func TestDataPlaneDoesNotWaitForTheControlLoop(t *testing.T) {
	cfg := Config{Slices: 1, SystemSize: 1, Slicer: StaticSlicer, Seed: 3}
	n, err := StartNode(NodeConfig{ID: 1, Bind: "127.0.0.1:0", RoundPeriod: 20 * time.Millisecond, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	close(n.done)
	n.wg.Wait()
	n.done = make(chan struct{}) // Close closes it once more

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
	// Control traffic (the client's MateQuery) may sit in the mailbox;
	// data requests must not have gone that way.
	for len(n.mailbox) > 0 {
		env := <-n.mailbox
		if _, data := core.RequestKey(env.Msg); data {
			t.Errorf("%T went through the control loop's mailbox", env.Msg)
		}
	}
}
