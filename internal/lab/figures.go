package lab

import (
	"fmt"
	"io"

	"dataflasks/internal/core"
)

// title heads one experiment's table in flaskbench's output.
func title(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, "\n=== "+format+" ===\n", args...)
}

// figureNs resolves a figure's node-count sweep: the caller's, else the
// reduced one under quick (the goldens'), else the paper's (§VI).
func figureNs(p Params) []int {
	switch {
	case len(p.Ns) > 0:
		return p.Ns
	case p.Quick:
		return []int{200, 400, 600}
	}
	return []int{500, 1000, 1500, 2000, 2500, 3000}
}

// FigureRow is one point of a figure's series.
type FigureRow struct {
	N      int
	Slices int
	// MsgsPerNode is the mean per-node sent+received message count
	// during the measured workload (the paper's y-axis).
	MsgsPerNode float64
	// Breakdown components (mean per-node sends).
	DataMsgs      float64
	PSSMsgs       float64
	DiscoveryMsgs float64
	// OK/Failed operations.
	OK, Failed int
}

// FigureResult is a regenerated figure.
type FigureResult struct {
	Rows []FigureRow
}

// MessagesAt runs one (N, slices) configuration under the default
// workload (§VI's: write-only, 50 ops) and returns its row. The workload
// runs with Flood forced on: the figures reproduce the paper's
// undirected global phase, not this implementation's directed hop
// (lab.RoutingAblation measures the difference).
func MessagesAt(n, slices int, seed uint64) FigureRow {
	cluster := NewCluster(ClusterConfig{
		N:    n,
		Seed: seed + uint64(n)*7 + uint64(slices),
		Node: core.Config{
			Slices: slices,
			// Like the flood below: the figures keep the repair rounds
			// they were first drawn with, so their series stay comparable
			// from commit to commit.
			AntiEntropyWholeStore: true,
		},
	})
	stats := cluster.RunWorkload(WorkloadOptions{Flood: true})
	return FigureRow{
		N:             n,
		Slices:        slices,
		MsgsPerNode:   stats.Messages.Mean,
		DataMsgs:      stats.DataMessages.Mean,
		PSSMsgs:       stats.PSSMessages.Mean,
		DiscoveryMsgs: stats.DiscoveryMessages.Mean,
		OK:            stats.OK,
		Failed:        stats.Failed,
	}
}

// runFigure3 regenerates the paper's Figure 3: average messages per node
// with a constant number of slices (ten; five under quick) while N
// grows. Expected shape: roughly flat — extra nodes only deepen
// replication.
func runFigure3(w io.Writer, p Params) Report {
	slices := 10
	if p.Quick {
		slices = 5
	}
	title(w, "Figure 3: avg messages per node, constant %d slices (paper §VI)", slices)
	var res FigureResult
	for _, n := range figureNs(p) {
		res.Rows = append(res.Rows, MessagesAt(n, slices, p.Seed))
	}
	res.writeTable(w)
	return Report{res, Figure3Gate(res)}
}

// Figure3Gate is Figure 3's: the workload completes, and the series is
// roughly flat — the largest N within 1.6x of the smallest.
func Figure3Gate(res FigureResult) []string {
	var g gate
	for _, r := range res.Rows {
		g.must(r.Failed <= r.OK/10, "N=%d: %d failures out of %d ops", r.N, r.Failed, r.OK+r.Failed)
	}
	first, last := res.Rows[0].MsgsPerNode, res.Rows[len(res.Rows)-1].MsgsPerNode
	g.must(last <= first*1.6 && first <= last*1.6, "Figure 3 not flat: %.1f → %.1f msgs/node", first, last)
	return g
}

// runFigure4 regenerates the paper's Figure 4: average messages per node
// with slices proportional to nodes (50 nodes per slice, so the figures
// coincide at N=500; 40 under quick). Expected shape: above Figure 3 and
// growing sub-linearly — the random contact node is almost never in the
// target slice and slice-mate discovery works harder as slices get
// scarce.
func runFigure4(w io.Writer, p Params) Report {
	title(w, "Figure 4: avg messages per node, slices ∝ nodes (paper §VI)")
	perSlice := 50
	if p.Quick {
		perSlice = 40
	}
	var res FigureResult
	for _, n := range figureNs(p) {
		res.Rows = append(res.Rows, MessagesAt(n, max(1, n/perSlice), p.Seed))
	}
	res.writeTable(w)
	return Report{res, Figure4Gate(res)}
}

// Figure4Gate is Figure 4's: more slices cost more messages per node.
func Figure4Gate(res FigureResult) []string {
	var g gate
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	g.must(last.Slices <= first.Slices || last.MsgsPerNode > first.MsgsPerNode, "Figure 4 not growing: %.1f → %.1f msgs/node", first.MsgsPerNode, last.MsgsPerNode)
	return g
}

func (res FigureResult) writeTable(w io.Writer) {
	fmt.Fprintf(w, "%8s %8s %14s %12s %10s %12s %6s %6s\n",
		"N", "slices", "msgs/node", "data", "pss", "discovery", "ok", "fail")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%8d %8d %14.1f %12.1f %10.1f %12.1f %6d %6d\n",
			r.N, r.Slices, r.MsgsPerNode, r.DataMsgs, r.PSSMsgs, r.DiscoveryMsgs, r.OK, r.Failed)
	}
}
