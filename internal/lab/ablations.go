package lab

import (
	"fmt"
	"io"

	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/metrics"
	"dataflasks/internal/workload"
)

// ---------------------------------------------------------------------------
// E11 — dynamic slice-count reconfiguration (§IV-C replication
// management): halving k doubles the replication factor of every
// object, with anti-entropy moving the data.

// ReconfigPoint tracks an object's replica count through a k change.
type ReconfigPoint struct {
	Round    int
	Replicas int
	// SliceAccuracy tracks how quickly the population re-sorts.
	SliceAccuracy float64
}

// ReconfigResult reports a live k change.
type ReconfigResult struct {
	Key        string
	OldSlices  int
	NewSlices  int
	BeforeReps int
	Timeline   []ReconfigPoint
}

// SliceReconfiguration writes an object under kOld slices, then
// reconfigures every node to kNew at runtime and watches replication
// adapt. Halving k should roughly double the replica count.
func SliceReconfiguration(n, kOld, kNew int, seed uint64) ReconfigResult {
	c := NewCluster(ClusterConfig{
		N:    n,
		Seed: seed,
		Node: core.Config{Slices: kOld, AntiEntropyEvery: 3},
	})
	cl := c.NewClient(client.Config{}, nil)
	c.Run(40)

	const key = "reconfigured"
	cl.StartPut(key, 1, []byte("elastic"), nil)
	c.Run(15)

	res := ReconfigResult{
		Key:        key,
		OldSlices:  kOld,
		NewSlices:  kNew,
		BeforeReps: c.ReplicaCount(key, 1),
	}

	// Reconfigure every node — in production this would arrive via a
	// management epidemic; the mechanism under test is the adaptation,
	// not the announcement.
	for _, node := range c.Nodes() {
		node.SetSliceCount(kNew)
	}
	// Accuracy is now measured against kNew.
	c.cfg.Node.Slices = kNew

	for r := 5; r <= 50; r += 5 {
		c.Run(5)
		res.Timeline = append(res.Timeline, ReconfigPoint{
			Round:         r,
			Replicas:      c.ReplicaCount(key, 1),
			SliceAccuracy: c.SliceAccuracy(),
		})
	}
	return res
}

func runReconfig(w io.Writer, p Params) Report {
	title(w, "E11: dynamic slice-count reconfiguration (§IV-C)")
	n := 400
	if p.Quick {
		n = 200
	}
	res := SliceReconfiguration(n, 10, 5, p.Seed)
	fmt.Fprintf(w, "object %q: k %d→%d, replicas before=%d\n",
		res.Key, res.OldSlices, res.NewSlices, res.BeforeReps)
	for _, pt := range res.Timeline {
		fmt.Fprintf(w, "  +%2d rounds: replicas=%d slice-accuracy=%.2f\n",
			pt.Round, pt.Replicas, pt.SliceAccuracy)
	}
	return Report{res, ReconfigGate(res)}
}

// ReconfigGate is E11's: halving k grows the replica set substantially,
// and the population re-sorts into the new slices.
func ReconfigGate(res ReconfigResult) []string {
	var g gate
	final := res.Timeline[len(res.Timeline)-1]
	g.must(final.Replicas >= res.BeforeReps*3/2, "replicas %d → %d after k %d→%d, want >= 1.5x", res.BeforeReps, final.Replicas, res.OldSlices, res.NewSlices)
	g.must(final.SliceAccuracy >= 0.6, "population never re-sorted: accuracy %.2f, want >= 0.6", final.SliceAccuracy)
	return g
}

// ---------------------------------------------------------------------------
// E12 — bounded-put-flood ablation: routing writes with the coverage-
// bounded global phase (§IV-B's optimization applied to puts) slashes
// message cost, while anti-entropy recovers the replication the
// truncated flood does not deliver synchronously.

// PutFloodRow compares one flood policy.
type PutFloodRow struct {
	Bounded bool
	// MsgsPerNode during the measured workload.
	MsgsPerNode float64
	DataPerNode float64
	// ImmediateReps is the replica count right after the floods drain.
	ImmediateReps int
	// RepairedReps is the count after anti-entropy catches up.
	RepairedReps int
	OK, Failed   int
}

// PutFloodAblation runs the same write workload with full and bounded
// put floods. Every put forces Flood on: the TTL budget under test only
// shapes the epidemic fanout, which a directed hop would bypass.
func PutFloodAblation(n, k int, seed uint64) []PutFloodRow {
	rows := make([]PutFloodRow, 0, 2)
	for _, bounded := range []bool{false, true} {
		c := NewCluster(ClusterConfig{
			N:    n,
			Seed: seed,
			Node: core.Config{
				Slices:           k,
				BoundedPutFlood:  bounded,
				AntiEntropyEvery: 3,
			},
		})
		cl := c.NewClient(client.Config{}, c.RandomLB())
		c.Run(30)
		c.ResetMetrics()

		var ok, failed int
		done := func(r client.Result) {
			if r.Err != nil {
				failed++
			} else {
				ok++
			}
		}
		const probe = "probe-object"
		flood := client.Opts{Flood: true}
		cl.StartPutOpts(probe, 1, []byte("x"), flood, done)
		for i := 0; i < 29; i++ {
			cl.StartPutOpts(workload.Key(i), 1, []byte("x"), flood, done)
		}
		c.Run(10)

		row := PutFloodRow{
			Bounded:       bounded,
			ImmediateReps: c.ReplicaCount(probe, 1),
			OK:            ok,
			Failed:        failed,
		}
		c.Run(40) // anti-entropy window
		row.RepairedReps = c.ReplicaCount(probe, 1)
		row.MsgsPerNode = metrics.SummarizeValues(c.MessagesPerNode()).Mean
		row.DataPerNode = metrics.Summarize(c.NodeMetrics(), metrics.DataSent).Mean
		rows = append(rows, row)
	}
	return rows
}

func runPutFlood(w io.Writer, p Params) Report {
	title(w, "E12: bounded-put-flood ablation (§IV-B optimization on writes)")
	n := 400
	if p.Quick {
		n = 200
	}
	rows := PutFloodAblation(n, 10, p.Seed)
	for _, r := range rows {
		fmt.Fprintf(w, "bounded=%-5v msgs/node=%8.1f data-sends/node=%8.1f reps: immediate=%d repaired=%d ok=%d fail=%d\n",
			r.Bounded, r.MsgsPerNode, r.DataPerNode, r.ImmediateReps, r.RepairedReps, r.OK, r.Failed)
	}
	return Report{rows, PutFloodGate(rows)}
}

// PutFloodGate is E12's, over the full flood's row and the bounded one's:
// bounded is cheaper, and anti-entropy closes most of the gap it leaves.
func PutFloodGate(rows []PutFloodRow) []string {
	var g gate
	full, bounded := rows[0], rows[1]
	g.must(bounded.DataPerNode < full.DataPerNode, "bounded flood not cheaper: %.1f vs %.1f data sends per node", bounded.DataPerNode, full.DataPerNode)
	g.must(bounded.RepairedReps >= full.RepairedReps/2, "bounded flood under-replicated even after repair: %d vs %d", bounded.RepairedReps, full.RepairedReps)
	return g
}

// ---------------------------------------------------------------------------
// E20 — routing ablation: the global phase as one directed hop to a
// peer the PSS view already names as a member of the key's slice
// (§VII's "collapse the global dissemination phase", done on the node)
// against the paper's epidemic fanout at every node.

// RoutingRow is one routing policy's cost over the shared workload at
// one scale (N nodes, K slices).
type RoutingRow struct {
	N, K int
	// Flood is true for the row whose clients force the epidemic
	// fanout on every request.
	Flood bool
	// DataMsgsPerOp is data-plane sends across all nodes per operation.
	DataMsgsPerOp       float64
	OK, Failed, Retries int
	// Directed and Flooded count the global-phase hops of each kind.
	Directed, Flooded uint64
}

// RoutingAblation runs the same 50/50 put/get mix over identical
// overlays twice: with directed routing (the default), and with the
// client forcing Flood on every request.
func RoutingAblation(n, k, ops int, seed uint64) []RoutingRow {
	rows := make([]RoutingRow, 0, 2)
	for _, flood := range []bool{false, true} {
		c := NewCluster(ClusterConfig{
			N:    n,
			Seed: seed,
			Node: core.Config{Slices: k},
		})
		stats := c.RunWorkload(WorkloadOptions{
			Ops:     ops,
			Mix:     workload.MixA,
			Records: 50,
			Preload: true,
			Flood:   flood,
			Seed:    seed,
		})
		row := RoutingRow{
			N: n, K: k,
			Flood:         flood,
			DataMsgsPerOp: stats.DataMessages.Mean * float64(c.N()) / float64(ops),
			OK:            stats.OK,
			Failed:        stats.Failed,
			Retries:       stats.Retries,
		}
		for _, m := range c.NodeMetrics() {
			row.Directed += m.Get(metrics.RequestsDirected)
			row.Flooded += m.Get(metrics.RequestsFlooded)
		}
		rows = append(rows, row)
	}
	return rows
}

// RoutingUnderChurn runs E5's read schedule at one churn rate twice,
// both times from a random contact — directed routing, then Flood
// forced on every read — so the two availabilities can be held against
// each other: a directed hop aims at one peer, and under churn that
// peer may be gone.
func RoutingUnderChurn(n, k int, rate float64, ops int, seed uint64) (directed, flood ChurnPoint) {
	rates := []float64{rate}
	directed = availabilityUnderChurn(n, k, rates, ops, seed, client.Opts{}, true)[0]
	flood = availabilityUnderChurn(n, k, rates, ops, seed, client.Opts{Flood: true}, true)[0]
	return directed, flood
}

// RoutingResult is E20's table: the ablation's rows, a directed and a
// flood one per scale, and both policies' reads under churn.
type RoutingResult struct {
	Rows                      []RoutingRow
	ChurnDirected, ChurnFlood ChurnPoint
}

func runRouting(w io.Writer, p Params) Report {
	title(w, "E20: routing ablation — directed global hop vs epidemic flood (§VII)")
	ops, churnN, churnOps := 200, 500, 100
	if p.Quick {
		ops, churnN, churnOps = 60, 150, 40
	}
	var res RoutingResult
	fmt.Fprintf(w, "%6s %4s %10s %12s %10s %10s %6s %8s %8s\n",
		"N", "k", "routing", "data msgs/op", "directed", "flooded", "ok", "failed", "retries")
	for _, sc := range []struct{ n, k int }{{150, 5}, {600, 15}} {
		pair := RoutingAblation(sc.n, sc.k, ops, p.Seed)
		for _, r := range pair {
			fmt.Fprintf(w, "%6d %4d %10s %12.1f %10d %10d %6d %8d %8d\n", r.N, r.K,
				map[bool]string{false: "directed", true: "flood"}[r.Flood],
				r.DataMsgsPerOp, r.Directed, r.Flooded, r.OK, r.Failed, r.Retries)
		}
		fmt.Fprintf(w, "N=%d k=%d: directed routing spends %.1fx fewer data messages per op\n",
			sc.n, sc.k, pair[1].DataMsgsPerOp/pair[0].DataMsgsPerOp)
		res.Rows = append(res.Rows, pair...)
	}
	const rate = 0.02
	res.ChurnDirected, res.ChurnFlood = RoutingUnderChurn(churnN, 10, rate, churnOps, p.Seed)
	fmt.Fprintf(w, "read availability at %.0f%%/round churn (N=%d): directed %.1f%% (%d retries), flood %.1f%% (%d retries)\n",
		rate*100, churnN, res.ChurnDirected.Availability*100, res.ChurnDirected.Retries,
		res.ChurnFlood.Availability*100, res.ChurnFlood.Retries)
	return Report{res, append(RoutingGate(res.Rows), RoutingChurnGate(res.ChurnDirected, res.ChurnFlood)...)}
}

// RoutingGate is E20's, for every (directed, flood) pair of rows: the
// directed hop spends at least 3x fewer data messages per op than the
// same workload with Flood forced on every request, fails no more ops,
// and the hop counters say which policy each row ran.
func RoutingGate(rows []RoutingRow) []string {
	var g gate
	for i := 0; i+1 < len(rows); i += 2 {
		directed, flood := rows[i], rows[i+1]
		at := fmt.Sprintf("N=%d k=%d", directed.N, directed.K)
		g.must(directed.DataMsgsPerOp*3 <= flood.DataMsgsPerOp, "%s: directed %.1f msgs/op not 3x below flood %.1f", at, directed.DataMsgsPerOp, flood.DataMsgsPerOp)
		g.must(directed.Failed <= flood.Failed, "%s: directed routing failed %d ops, flood %d", at, directed.Failed, flood.Failed)
		g.must(directed.Directed != 0 && flood.Directed == 0, "%s: directed hops %d with routing on, %d with Flood forced", at, directed.Directed, flood.Directed)
	}
	return g
}

// RoutingChurnGate is RoutingUnderChurn's: a directed hop aims at one
// peer churn may have taken, and must still keep read availability
// within two points of the flood's.
func RoutingChurnGate(directed, flood ChurnPoint) []string {
	var g gate
	g.must(directed.Availability >= flood.Availability-0.02, "directed routing lost availability under churn: %.1f%% vs flood %.1f%%",
		directed.Availability*100, flood.Availability*100)
	return g
}
