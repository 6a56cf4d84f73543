package lab

import (
	"fmt"
	"io"
	"strings"
)

// Params is what the caller of a run may choose; the scales belong to
// the experiment.
type Params struct {
	// Seed drives every random choice of the run.
	Seed uint64
	// Quick selects the reduced scale (smoke runs; what the goldens pin).
	Quick bool
	// Ns overrides the node sweep of the two figures (nil: the scale's).
	Ns []int
}

// Report is one run's outcome: the measurements behind the table it
// wrote, and what the experiment's gate found broken (nothing when the
// experiment holds).
type Report struct {
	Result any
	Broken []string
}

// gate collects a gate function's findings: what a result must hold and
// does not.
type gate []string

// must records the finding unless ok.
func (g *gate) must(ok bool, format string, args ...any) {
	if !ok {
		*g = append(*g, fmt.Sprintf(format, args...))
	}
}

// Experiment is one row of the table: a flaskbench -exp name, the
// E-number (or paper figure) its heading carries, and its run. Run
// picks the scale's parameters, writes the heading and the table to w,
// and judges the result with the gate that sits next to the
// experiment's code — the same function the package's tests call.
type Experiment struct {
	Name string
	E    string
	// Gates says, in a line, what Broken holds a run to.
	Gates string
	// Goldens names the testdata/<name>.golden files that pin the run's
	// -quick -seed 42 output, one per heading it writes. None marks a
	// wall-clock experiment, whose numbers differ from run to run.
	Goldens []string
	Run     func(w io.Writer, p Params) Report
}

// Experiments is every experiment flaskbench runs, in -exp all order.
var Experiments = []Experiment{
	{"fig3", "Figure 3", "no row fails over a tenth of its ops; messages per node stay flat (within 1.6x) as N grows", []string{"fig3"}, runFigure3},
	{"fig4", "Figure 4", "messages per node grow with the slice count", []string{"fig4"}, runFigure4},
	{"slicing", "E3", "without churn the rank slicer ends at accuracy >= 0.6 with nobody undecided, no worse than at round 5", []string{"slicing"}, runSlicing},
	{"correlated", "E4", "the rank slicer repopulates a gutted slice to over half its size, the static one cannot", []string{"correlated"}, runCorrelated},
	{"churn", "E5, E17", "reads: >= 99% available without churn, >= 80% at 2%/round; repair: every digest mode converges, Bloom >= 5x cheaper than full headers, ranged no dearer than Bloom and >= 5x cheaper once converged", []string{"churn_e5", "churn_e17"}, runChurn},
	{"repair", "E6", "anti-entropy lifts the replica count back above what the kill left", []string{"repair"}, runRepair},
	{"lb", "E7", "the slice directory spends fewer data messages per op than a random contact, fails and retries no more, pins no member (spread <= 2)", []string{"lb"}, runLoadBalancer},
	{"dht", "E8", "both stores serve a calm cluster; at 5%/round churn DataFlasks stays more available than the DHT", []string{"dht"}, runDHT},
	{"pss", "E9", "Cyclon's in-degree sits near the view size (mean 10..30, p99 <= 3x mean) with at most 2 orphans", []string{"pss"}, runPSS},
	{"fanout", "E10", "flood coverage never falls below the lowest c's and is >= 95% at c=1", []string{"fanout"}, runFanout},
	{"reconfig", "E11", "halving k grows the replica count >= 1.5x and the population re-sorts (accuracy >= 0.6)", []string{"reconfig"}, runReconfig},
	{"putflood", "E12", "the bounded put flood sends less data per node and repair brings it to over half the full flood's replicas", []string{"putflood"}, runPutFlood},
	{"store", "E13", "every engine's measurement completes (puts, reads back, recovery count)", nil, runStore},
	{"compact", "E14", "no read or write fails while a compaction pass runs", nil, runCompact},
	{"pipeline", "E15", "no op fails; pipelined and batched puts finish >= 5x sooner than blocking ones; a batch costs under half the data messages per object", []string{"pipeline"}, runPipeline},
	{"resp", "E16", "at most 5% of a mode's commands fail; pipelined RESP finishes >= 5x sooner than one command per round trip", nil, runRESP},
	{"bootstrap", "E18", "every joiner recovers its slice; segment streaming >= 5x sooner than object repair and without falling back; among peers without the protocol the joiner falls back and repair refills it", []string{"bootstrap"}, runBootstrap},
	{"shards", "E19", "1 and 8 shards converge to identical stores; 32 puts in flight commit >= 1.5 per store write; with >= 4 cores 8 shards serve >= 2x one shard's rate", nil, runShards},
	{"route", "E20", "the directed hop spends >= 3x fewer data messages per op than the forced flood, fails no more ops, and keeps read availability under churn within 2 points", []string{"route"}, runRouting},
}

// Names lists the -exp names in table order, for usage strings.
func Names() string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}

// Select resolves an -exp argument: the named row, every row for "all",
// nothing for a name the table does not hold.
func Select(name string) []Experiment {
	if name == "all" {
		return Experiments
	}
	for _, e := range Experiments {
		if e.Name == name {
			return []Experiment{e}
		}
	}
	return nil
}
