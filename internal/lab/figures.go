package lab

import (
	"fmt"
	"io"

	"dataflasks/internal/core"
)

// DefaultNs is the paper's node-count sweep (§VI).
var DefaultNs = []int{500, 1000, 1500, 2000, 2500, 3000}

// title heads one experiment's table in flaskbench's output.
func title(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, "\n=== "+format+" ===\n", args...)
}

// figureNs resolves a figure's sweep: the caller's, else the reduced one
// under quick (flaskbench -quick's, and so the goldens'), else nil —
// FigureOptions' default, the paper's.
func figureNs(ns []int, quick bool) []int {
	if len(ns) == 0 && quick {
		return []int{200, 400, 600}
	}
	return ns
}

// FigureOptions tunes the two headline experiments.
type FigureOptions struct {
	// Ns is the node-count sweep (default DefaultNs).
	Ns []int
	// Slices for Figure 3's constant-k run (default 10, as in §VI).
	Slices int
	// ReplicationFactor for Figure 4's constant-replication run:
	// k = N / ReplicationFactor (default 50, giving k=10 at N=500 so
	// the two experiments coincide at the smallest scale).
	ReplicationFactor int
	// Workload drives the measured phase.
	Workload WorkloadOptions
	// Seed drives all randomness.
	Seed uint64
}

func (o *FigureOptions) defaults() {
	if len(o.Ns) == 0 {
		o.Ns = DefaultNs
	}
	if o.Slices <= 0 {
		o.Slices = 10
	}
	if o.ReplicationFactor <= 0 {
		o.ReplicationFactor = 50
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
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

// MessagesAt runs one (N, slices) configuration and returns its row.
// The workload runs with Flood forced on: the figures reproduce the
// paper's undirected global phase, not this implementation's directed
// hop (lab.RoutingAblation measures the difference).
func MessagesAt(n, slices int, opts FigureOptions) FigureRow {
	cluster := NewCluster(ClusterConfig{
		N:    n,
		Seed: opts.Seed + uint64(n)*7 + uint64(slices),
		Node: core.Config{
			Slices: slices,
			// Like the flood below: the figures keep the repair rounds
			// they were first drawn with, so their series stay comparable
			// from commit to commit.
			AntiEntropyWholeStore: true,
		},
	})
	wl := opts.Workload
	wl.Flood = true
	stats := cluster.RunWorkload(wl)
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

// Figure3 regenerates the paper's Figure 3: average messages per node
// with a constant number of slices while N grows 500→3000. Expected
// shape: roughly flat — extra nodes only deepen replication.
func Figure3(opts FigureOptions) FigureResult {
	opts.defaults()
	var res FigureResult
	for _, n := range opts.Ns {
		res.Rows = append(res.Rows, MessagesAt(n, opts.Slices, opts))
	}
	return res
}

// Figure4 regenerates the paper's Figure 4: average messages per node
// with slices proportional to nodes (constant replication factor).
// Expected shape: above Figure 3 and growing sub-linearly — the random
// contact node is almost never in the target slice and slice-mate
// discovery works harder as slices get scarce.
func Figure4(opts FigureOptions) FigureResult {
	opts.defaults()
	var res FigureResult
	for _, n := range opts.Ns {
		k := n / opts.ReplicationFactor
		if k < 1 {
			k = 1
		}
		res.Rows = append(res.Rows, MessagesAt(n, k, opts))
	}
	return res
}

// WriteFigure3 runs Figure 3 at flaskbench's scale — ten slices, five
// under quick — over ns (nil: the scale's sweep) and writes its table.
func WriteFigure3(w io.Writer, ns []int, seed uint64, quick bool) FigureResult {
	slices := 10
	if quick {
		slices = 5
	}
	title(w, "Figure 3: avg messages per node, constant %d slices (paper §VI)", slices)
	res := Figure3(FigureOptions{Ns: figureNs(ns, quick), Slices: slices, Seed: seed})
	res.writeTable(w)
	return res
}

// WriteFigure4 is WriteFigure3 for Figure 4: 50 nodes per slice, 40
// under quick.
func WriteFigure4(w io.Writer, ns []int, seed uint64, quick bool) FigureResult {
	title(w, "Figure 4: avg messages per node, slices ∝ nodes (paper §VI)")
	rf := 50
	if quick {
		rf = 40
	}
	res := Figure4(FigureOptions{Ns: figureNs(ns, quick), ReplicationFactor: rf, Seed: seed})
	res.writeTable(w)
	return res
}

func (res FigureResult) writeTable(w io.Writer) {
	fmt.Fprintf(w, "%8s %8s %14s %12s %10s %12s %6s %6s\n",
		"N", "slices", "msgs/node", "data", "pss", "discovery", "ok", "fail")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%8d %8d %14.1f %12.1f %10.1f %12.1f %6d %6d\n",
			r.N, r.Slices, r.MsgsPerNode, r.DataMsgs, r.PSSMsgs, r.DiscoveryMsgs, r.OK, r.Failed)
	}
}
