package lab

import (
	"testing"

	"dataflasks/internal/core"
	"dataflasks/internal/dht"
)

// Experiment smoke tests at reduced scale: they assert the qualitative
// claims each experiment exists to demonstrate, so a regression in any
// protocol shows up as a reversed conclusion, not just different
// numbers.

func TestSlicingConvergenceReachesAccuracy(t *testing.T) {
	points := SlicingConvergence(200, 5, 40, 0, core.SlicerRank, 3)
	last := points[len(points)-1]
	if last.Accuracy < 0.6 {
		t.Errorf("rank slicer accuracy %.2f after 40 rounds, want >= 0.6", last.Accuracy)
	}
	if last.Undecided != 0 {
		t.Errorf("%d nodes still undecided", last.Undecided)
	}
	// Accuracy improves from early rounds to late rounds.
	if points[4].Accuracy > last.Accuracy {
		t.Errorf("accuracy degraded: r5=%.2f r40=%.2f", points[4].Accuracy, last.Accuracy)
	}
}

func TestCorrelatedFailureRankRecoversStaticDoesNot(t *testing.T) {
	rank := CorrelatedFailure(200, 5, 0.8, core.SlicerRank, 6, 7)
	static := CorrelatedFailure(200, 5, 0.8, core.SlicerStatic, 6, 7)

	if rank.Killed == 0 || static.Killed == 0 {
		t.Fatalf("kills: rank=%d static=%d", rank.Killed, static.Killed)
	}
	rankFinal := rank.AfterMembers[len(rank.AfterMembers)-1]
	staticFinal := static.AfterMembers[len(static.AfterMembers)-1]

	// §IV-A's claim: the adaptive slicer repopulates the gutted slice,
	// the memoryless baseline cannot.
	if rankFinal <= staticFinal {
		t.Errorf("rank slicer final members %d not above static %d", rankFinal, staticFinal)
	}
	if rankFinal < rank.BeforeMembers/2 {
		t.Errorf("rank slicer recovered only %d of %d members", rankFinal, rank.BeforeMembers)
	}
	if staticFinal > static.BeforeMembers-static.Killed+2 {
		t.Errorf("static slicer gained members (%d) without a mechanism to", staticFinal)
	}
}

// TestAvailabilityDegradesGracefully reads E5's churn-free and
// 2%-per-round points: off flaskbench -quick's run (the one
// TestGoldenTables pins), or off a smaller one of its own under -short.
func TestAvailabilityDegradesGracefully(t *testing.T) {
	var calm, churned ChurnPoint
	if testing.Short() {
		points := AvailabilityUnderChurn(150, 5, []float64{0, 0.02}, 40, 11)
		calm, churned = points[0], points[1]
	} else {
		points := quickChurnE5().res
		calm, churned = points[0], points[3]
	}
	if calm.ChurnPerRound != 0 || churned.ChurnPerRound != 0.02 {
		t.Fatalf("read the rows of churn rates %v and %v, want 0 and 0.02", calm.ChurnPerRound, churned.ChurnPerRound)
	}
	if calm.Availability < 0.99 {
		t.Errorf("churn-free availability %.2f, want ~1", calm.Availability)
	}
	if churned.Availability < 0.8 {
		t.Errorf("availability at 2%%/round churn = %.2f, want >= 0.8", churned.Availability)
	}
}

func TestReplicationRepairRestoresReplicas(t *testing.T) {
	res := ReplicationRepair(150, 5, 3, 13)
	if res.InitialCount == 0 {
		t.Fatal("object never replicated")
	}
	if res.AfterKillCount >= res.InitialCount {
		t.Fatalf("kill did not reduce replicas: %d → %d", res.InitialCount, res.AfterKillCount)
	}
	final := res.Timeline[len(res.Timeline)-1].Replicas
	if final <= res.AfterKillCount {
		t.Errorf("anti-entropy never repaired: %d → %d", res.AfterKillCount, final)
	}
}

// TestLoadBalancerDirectoryCheaperAndSpread gates E7: the slice
// directory must beat the random contact on data messages per op, on
// the read-heavy and the put-only mix, without failing or retrying more
// and without pinning a member of any slice.
func TestLoadBalancerDirectoryCheaperAndSpread(t *testing.T) {
	var rows []LBResult
	if testing.Short() {
		// The race run: ~13 contacts per member still tell a pin from a spread.
		rows = LoadBalancerAblation(60, 4, 800, 17)
	} else {
		rows = quickLB().res
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("mix %-3s %-9s %6.2f data msgs/op, ok %d, failed %d, %.3f retries/op, spread %.2f",
			r.Mix, r.Balancer, r.DataMsgsPerOp, r.OK, r.Failed, r.MeanRetries, r.Spread)
	}
	for _, msg := range LoadBalancerGate(rows) {
		t.Error(msg)
	}
}

func TestDHTComparisonDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the slowest comparison sweep")
	}
	rows := CompareWithDHT(120, 5, 40, []float64{0, 0.05}, 19)
	calm, stormy := rows[0], rows[1]
	// Both work when calm.
	if calm.FlasksAvail < 0.95 || calm.DHTAvail < 0.9 {
		t.Errorf("calm availability: flasks=%.2f dht=%.2f", calm.FlasksAvail, calm.DHTAvail)
	}
	// Under heavy churn the epidemic substrate must win — the paper's
	// whole thesis.
	if stormy.FlasksAvail <= stormy.DHTAvail {
		t.Errorf("under churn flasks %.2f <= dht %.2f", stormy.FlasksAvail, stormy.DHTAvail)
	}
}

func TestPSSQualityCyclonUniform(t *testing.T) {
	q := MeasurePSSQuality(200, 30, core.PSSCyclon, 23)
	if q.ZeroInDegree > 2 {
		t.Errorf("cyclon left %d nodes with zero in-degree", q.ZeroInDegree)
	}
	// In-degree should be near the view size with modest spread.
	if q.InDegree.Mean < 10 || q.InDegree.Mean > 30 {
		t.Errorf("mean in-degree = %.1f", q.InDegree.Mean)
	}
	if q.InDegree.P99 > 3*uint64(q.InDegree.Mean) {
		t.Errorf("cyclon in-degree skewed: p99=%d mean=%.1f", q.InDegree.P99, q.InDegree.Mean)
	}
}

func TestFanoutSweepMonotone(t *testing.T) {
	points := FanoutSweep(150, []float64{-2, 1}, 10, 29)
	lo, hi := points[0], points[1]
	if hi.MeanCover < lo.MeanCover {
		t.Errorf("coverage not monotone in c: %.3f → %.3f", lo.MeanCover, hi.MeanCover)
	}
	if hi.MeanCover < 0.95 {
		t.Errorf("coverage at c=1 only %.3f", hi.MeanCover)
	}
}

func TestSliceReconfigurationGrowsReplication(t *testing.T) {
	res := SliceReconfiguration(150, 6, 3, 31)
	final := res.Timeline[len(res.Timeline)-1]
	// Halving k must grow the replica set substantially.
	if final.Replicas < res.BeforeReps*3/2 {
		t.Errorf("replicas %d → %d after halving k, want >= 1.5x", res.BeforeReps, final.Replicas)
	}
	if final.SliceAccuracy < 0.6 {
		t.Errorf("population never re-sorted: accuracy %.2f", final.SliceAccuracy)
	}
}

func TestPutFloodAblationTradeoff(t *testing.T) {
	rows := PutFloodAblation(150, 5, 37)
	full, bounded := rows[0], rows[1]
	if bounded.DataPerNode >= full.DataPerNode {
		t.Errorf("bounded flood not cheaper: %.1f vs %.1f", bounded.DataPerNode, full.DataPerNode)
	}
	// Anti-entropy must close most of the replication gap.
	if bounded.RepairedReps < full.RepairedReps/2 {
		t.Errorf("bounded flood under-replicated even after repair: %d vs %d",
			bounded.RepairedReps, full.RepairedReps)
	}
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

// TestRoutingAblationDirectedCheaper gates E20 at the two scales the
// figures' small sweeps use (flaskbench -quick's run, the one
// TestGoldenTables pins; the smaller scale alone under -short): the
// directed hop must cut data messages per op at least 3x against the
// forced flood, and fail no more ops.
func TestRoutingAblationDirectedCheaper(t *testing.T) {
	var rows []RoutingRow
	if testing.Short() {
		rows = RoutingAblation(150, 5, 60, 43)
	} else {
		rows = quickRoute().res
	}
	for i := 0; i+1 < len(rows); i += 2 {
		directed, flood := rows[i], rows[i+1]
		sc := directed // the pair's scale
		t.Logf("N=%d k=%d: directed %.1f msgs/op (hops %d directed, %d flooded, %d retries, %d failed), flood %.1f msgs/op (%d failed)",
			sc.N, sc.K, directed.DataMsgsPerOp, directed.Directed, directed.Flooded, directed.Retries, directed.Failed,
			flood.DataMsgsPerOp, flood.Failed)
		if directed.DataMsgsPerOp*3 > flood.DataMsgsPerOp {
			t.Errorf("N=%d k=%d: directed %.1f msgs/op not 3x below flood %.1f",
				sc.N, sc.K, directed.DataMsgsPerOp, flood.DataMsgsPerOp)
		}
		if directed.Failed > flood.Failed {
			t.Errorf("N=%d k=%d: directed routing failed %d ops, flood %d", sc.N, sc.K, directed.Failed, flood.Failed)
		}
		if directed.Directed == 0 || flood.Directed != 0 {
			t.Errorf("N=%d k=%d: directed hops %d with routing on, %d with Flood forced", sc.N, sc.K, directed.Directed, flood.Directed)
		}
	}
}
