package lab

import (
	"testing"

	"dataflasks/internal/core"
	"dataflasks/internal/dht"
)

// Experiment smoke tests: each holds an experiment to the gate that sits
// next to its code, so a regression in any protocol shows up as a
// reversed conclusion, not just different numbers. Under -short (the
// race run) a test measures at a reduced scale of its own; otherwise it
// reads the row's flaskbench -quick run, the one TestGoldenTables pins.

func TestSlicingConvergenceReachesAccuracy(t *testing.T) {
	if !testing.Short() {
		holdQuick(t, "slicing")
		return
	}
	hold(t, SlicingGate([]SlicingRun{{"rank", 0, SlicingConvergence(200, 5, 40, 0, core.SlicerRank, 3)}}))
}

func TestCorrelatedFailureRankRecoversStaticDoesNot(t *testing.T) {
	if !testing.Short() {
		holdQuick(t, "correlated")
		return
	}
	hold(t, CorrelatedGate(
		CorrelatedFailure(200, 5, 0.8, core.SlicerRank, 6, 7),
		CorrelatedFailure(200, 5, 0.8, core.SlicerStatic, 6, 7)))
}

// TestAvailabilityDegradesGracefully holds E5's churn-free and
// 2%-per-round points.
func TestAvailabilityDegradesGracefully(t *testing.T) {
	if !testing.Short() {
		hold(t, AvailabilityGate(quick("churn").Result.(ChurnResult).Availability))
		return
	}
	hold(t, AvailabilityGate(AvailabilityUnderChurn(150, 5, []float64{0, 0.02}, 40, 11)))
}

func TestReplicationRepairRestoresReplicas(t *testing.T) {
	if !testing.Short() {
		holdQuick(t, "repair")
		return
	}
	hold(t, RepairGate(ReplicationRepair(150, 5, 3, 13)))
}

// TestLoadBalancerDirectoryCheaperAndSpread holds E7: the slice
// directory must beat the random contact on data messages per op, on
// the read-heavy and the put-only mix, without failing or retrying more
// and without pinning a member of any slice.
func TestLoadBalancerDirectoryCheaperAndSpread(t *testing.T) {
	var rows []LBResult
	if testing.Short() {
		// The race run: 800 ops are 100 client ticks, so the directory
		// deals each member of a 15-node slice about 6 of its ~90 pins
		// (~13 contacts); a member that took every tick would read 15.
		rows = LoadBalancerAblation(60, 4, 800, 17)
	} else {
		rows = quick("lb").Result.([]LBResult)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("mix %-3s %-9s %6.2f data msgs/op, ok %d, failed %d, %.3f retries/op, spread %.2f",
			r.Mix, r.Balancer, r.DataMsgsPerOp, r.OK, r.Failed, r.MeanRetries, r.Spread)
	}
	hold(t, LoadBalancerGate(rows))
}

func TestDHTComparisonDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the slowest comparison sweep")
	}
	holdQuick(t, "dht")
}

func TestPSSQualityCyclonUniform(t *testing.T) {
	if !testing.Short() {
		holdQuick(t, "pss")
		return
	}
	hold(t, PSSGate(MeasurePSSQuality(200, 30, core.PSSCyclon, 23)))
}

func TestFanoutSweepMonotone(t *testing.T) {
	if !testing.Short() {
		holdQuick(t, "fanout")
		return
	}
	hold(t, FanoutGate(FanoutSweep(150, []float64{-2, 1}, 10, 29)))
}

func TestSliceReconfigurationGrowsReplication(t *testing.T) {
	if !testing.Short() {
		holdQuick(t, "reconfig")
		return
	}
	hold(t, ReconfigGate(SliceReconfiguration(150, 6, 3, 31)))
}

func TestPutFloodAblationTradeoff(t *testing.T) {
	if !testing.Short() {
		holdQuick(t, "putflood")
		return
	}
	hold(t, PutFloodGate(PutFloodAblation(150, 5, 37)))
}

func TestDHTClusterBasics(t *testing.T) {
	c := NewDHTCluster(50, dht.Config{Replicas: 3}, 41)
	cl := c.NewClient(dht.ClientConfig{})
	c.Run(20)

	var put, get *dht.ClientResult
	cl.StartPut("key", 1, []byte("v"), func(r dht.ClientResult) { put = &r })
	c.Run(10)
	if put == nil || put.Err != nil {
		t.Fatalf("dht put = %+v", put)
	}
	if got := c.ReplicaCount("key", 1); got != 3 {
		t.Errorf("dht replicas = %d, want 3", got)
	}
	cl.StartGet("key", func(r dht.ClientResult) { get = &r })
	c.Run(10)
	if get == nil || get.Err != nil || string(get.Value) != "v" {
		t.Fatalf("dht get = %+v", get)
	}

	// Churn interface: kill and spawn keep the cluster usable.
	c.Kill(c.AliveIDs()[0])
	c.Spawn()
	if c.N() != 50 {
		t.Errorf("population = %d", c.N())
	}
}

// TestRoutingAblationDirectedCheaper holds E20 at the two scales the
// figures' small sweeps use (the smaller scale alone, and without the
// churn half, under -short).
func TestRoutingAblationDirectedCheaper(t *testing.T) {
	if !testing.Short() {
		holdQuick(t, "route")
		return
	}
	hold(t, RoutingGate(RoutingAblation(150, 5, 60, 43)))
}
