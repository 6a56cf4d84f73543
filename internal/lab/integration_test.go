package lab

import (
	"testing"

	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/metrics"
)

// TestAutoSystemSize runs a cluster where nodes are NOT told N: the
// extrema-propagation estimator must converge well enough that fanout
// and TTL budgets work and operations complete.
func TestAutoSystemSize(t *testing.T) {
	c := NewCluster(ClusterConfig{
		N:              150,
		Seed:           51,
		AutoSystemSize: true,
		Node:           core.Config{Slices: 5},
	})
	cl := c.NewClient(client.Config{}, nil)
	c.Run(40)

	// Every node's estimate should be within 2x of the truth.
	bad := 0
	for _, n := range c.Nodes() {
		est := n.SystemSizeEstimate()
		if est < 75 || est > 300 {
			bad++
		}
	}
	if bad > 15 {
		t.Errorf("%d of 150 nodes estimate N badly", bad)
	}

	var res client.Result
	gotRes := false
	cl.StartPutOpts("auto", 1, []byte("sized by gossip"), client.Opts{}, func(r client.Result) { res = r; gotRes = true })
	c.Run(10)
	if !gotRes || res.Err != nil {
		t.Fatalf("put with estimated N: gotRes=%v err=%v", gotRes, res.Err)
	}
	if reps := c.ReplicaCount("auto", 1); reps < 10 {
		t.Errorf("replicated to %d nodes only", reps)
	}
}

// TestLossyNetwork verifies the epidemic substrate absorbs 10% message
// loss: operations still complete (with retries) and replication still
// reaches most of the slice.
func TestLossyNetwork(t *testing.T) {
	c := NewCluster(ClusterConfig{
		N:        150,
		Seed:     53,
		LossRate: 0.10,
		Node:     core.Config{Slices: 5, AntiEntropyEvery: 5},
	})
	cl := c.NewClient(client.Config{}, nil)
	c.Run(35)

	ok, failed := 0, 0
	done := func(r client.Result) {
		if r.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	for i := 0; i < 10; i++ {
		cl.StartPutOpts("lossy-key-"+string(rune('a'+i)), 1, []byte("lossy"), client.Opts{}, done)
	}
	c.Run(60)
	if ok < 9 {
		t.Errorf("under 10%% loss only %d/10 puts completed (%d failed)", ok, failed)
	}
	if net := c.Net.Stats(); net.Dropped == 0 {
		t.Error("loss injection inactive")
	}
}

// TestPersistentBackedCluster runs a simulated cluster whose nodes
// persist via the durable engine, exercising the store integration
// (and the engine-selection plumbing) end to end.
func TestPersistentBackedCluster(t *testing.T) {
	for name, engine := range map[string]core.StoreEngine{"log": core.StoreLog} {
		t.Run(name, func(t *testing.T) {
			c := NewCluster(ClusterConfig{
				N:        40,
				Seed:     57,
				Node:     core.Config{Slices: 2},
				Store:    core.StoreConfig{Engine: engine},
				StoreDir: t.TempDir(),
			})
			defer c.Close()
			cl := c.NewClient(client.Config{}, nil)
			c.Run(25)

			var res client.Result
			cl.StartPutOpts("durable", 1, []byte("on disk"), client.Opts{}, func(r client.Result) { res = r })
			c.Run(10)
			if res.Err != nil {
				t.Fatalf("put: %v", res.Err)
			}
			if reps := c.ReplicaCount("durable", 1); reps < 5 {
				t.Errorf("%s replicas = %d", name, reps)
			}
		})
	}
}

// TestMultiAckWritesAndDeletesFloodFirstAttempt: a write that needs two
// acks, and a delete, take the flood from their first attempt — only
// the slice's entry points acknowledge, and one directed hop makes one
// — so they complete without a retry, as they did before the directed
// hop existed, and reach the whole slice.
func TestMultiAckWritesAndDeletesFloodFirstAttempt(t *testing.T) {
	c := NewCluster(ClusterConfig{N: 100, Seed: 57, Node: core.Config{Slices: 4, AntiEntropyEvery: -1}})
	cl := c.NewClient(client.Config{PutAcks: 2}, nil)
	c.Run(35)
	c.ResetMetrics()

	var put, del *client.Result
	cl.StartPutOpts("multi-ack", 1, []byte("v"), client.Opts{}, func(r client.Result) { put = &r })
	c.Run(10)
	if put == nil || put.Err != nil || put.Acks < 2 || put.Retries != 0 {
		t.Fatalf("two-ack put = %+v, want >= 2 acks on the first attempt", put)
	}
	reps := c.ReplicaCount("multi-ack", 1)
	if reps < 15 {
		t.Fatalf("two-ack put reached %d replicas", reps)
	}
	cl.StartDeleteBatch([]core.DeleteItem{{Key: "multi-ack", Version: 1}}, client.Opts{Acks: 1}, func(r client.Result) { del = &r })
	c.Run(10)
	if del == nil || del.Err != nil || del.Retries != 0 || del.Applied != 1 {
		t.Fatalf("delete = %+v, want done on the first attempt, the object held", del)
	}
	// A flood covers the slice w.h.p., not surely, and a node that has
	// since left the slice keeps its copy.
	if left := c.ReplicaCount("multi-ack", 1); left*5 > reps {
		t.Errorf("delete left %d of %d replicas", left, reps)
	}
	var directed uint64
	for _, m := range c.NodeMetrics() {
		directed += m.Get(metrics.RequestsDirected)
	}
	if directed != 0 {
		t.Errorf("%d directed hops; both ops should have flooded throughout", directed)
	}
}
