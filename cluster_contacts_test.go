package dataflasks

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dataflasks/internal/core"
	"dataflasks/internal/transport"
)

// TestClusterClientFollowsMembership: a client made before RemoveNode
// and AddNode draws its flood contacts (retries, deletes, multi-ack
// writes) from the cluster's present nodes. With the list frozen at
// creation a third of the deletes below would start at a removed id and
// burn an attempt timeout each.
func TestClusterClientFollowsMembership(t *testing.T) {
	const period = 20 * time.Millisecond
	c, err := NewCluster(12, Config{Slices: 2, Seed: 11}, WithRoundPeriod(period))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	clientID := c.nextCl
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * period) // let the overlay converge

	// The fabric's unknown-peer count cannot tell the client's sends from
	// the nodes', whose views name the removed ids for a while yet: each
	// removed id gets a sink that counts the requests the client sends it.
	var fromClient atomic.Uint64
	removed := c.NodeIDs()[:4]
	for _, id := range removed {
		if err := c.RemoveNode(id); err != nil {
			t.Fatal(err)
		}
		if _, err := c.net.Attach(id, func(env transport.Envelope) {
			if _, attempt := core.RequestKey(env.Msg); attempt && env.From == clientID {
				fromClient.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	added, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	drawn := onLoop(cl, func() map[NodeID]bool {
		seen := make(map[NodeID]bool)
		for i := 0; i < 400; i++ {
			id, _ := cl.contacts.Contact("")
			seen[id] = true
		}
		return seen
	})
	if !drawn[added] {
		t.Errorf("node %s, added after the client was made, is never a contact", added)
	}
	for id := range drawn {
		if slices.Contains(removed, id) {
			t.Errorf("removed node %s is still a contact", id)
		}
	}

	time.Sleep(40 * period) // the survivors re-slice
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const deletes = 30
	retried := 0
	for i := 0; i < deletes; i++ {
		op := cl.DeleteAsync(fmt.Sprintf("k-%d", i), 1, WithTimeout(20*period))
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if op.Retries() > 0 {
			retried++
		}
	}
	if n := fromClient.Load(); n != 0 {
		t.Errorf("the client sent %d attempts to removed nodes", n)
	}
	// The stale list retries a third of them (P(≤ 3 of 30) < 0.5%); with
	// the fresh one only a copy lost to a survivor's stale view can.
	if retried > 3 {
		t.Errorf("%d of %d deletes needed a retry", retried, deletes)
	}
}
