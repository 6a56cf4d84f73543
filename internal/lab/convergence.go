package lab

import (
	"fmt"
	"io"

	"dataflasks/internal/core"
	"dataflasks/internal/metrics"
	"dataflasks/internal/sim"
	"dataflasks/internal/slicing"
)

// ---------------------------------------------------------------------------
// E17 — churn convergence: time-to-replication-factor and repair
// bandwidth of the range-fingerprinted descent vs the whole-store
// full-header reference

// ChurnConvergenceOptions configures one churn-convergence run.
type ChurnConvergenceOptions struct {
	// N is the cluster size, Slices the slice count k.
	N, Slices int
	// Records is the preloaded key-space size.
	Records int
	// KillFrac is the fraction of nodes crashed (and replaced by fresh
	// joiners) in the churn burst.
	KillFrac float64
	// Rounds is the measured window after the burst; both protocol
	// modes run the same window so bandwidth totals are comparable.
	Rounds int
	// WholeStore opens every round with a list of all local headers
	// (core.Config.AntiEntropyWholeStore) — the full-header reference;
	// false opens with the range fingerprints and narrows down to the
	// prefixes that differ.
	WholeStore bool
	// Seed drives every random choice.
	Seed uint64
}

// ChurnConvergenceResult reports one run. Bandwidth totals cover the
// whole measured window (both modes run the same number of rounds over
// the same population, so totals compare directly).
type ChurnConvergenceResult struct {
	// Mode labels the digest protocol ("full-header" or "ranged").
	Mode string
	// Converged reports whether every slice member came to hold every
	// object of its slice within the window; ConvergedRound is the
	// first round (after the burst) where that held (-1 if never).
	Converged      bool
	ConvergedRound int
	// Rounds is the measured window length.
	Rounds int
	// MinCoverage is the final min over objects of
	// holders-in-slice / slice-members (1.0 = fully replicated).
	MinCoverage float64
	// DigestBytes sums the encoded frame bytes of the
	// difference-discovery messages received (Reconcile, Pull) across
	// all nodes in the window.
	DigestBytes uint64
	// PushBytes sums repaired value bytes shipped; PushedObjects the
	// object count.
	PushBytes     uint64
	PushedObjects uint64
	// DigestBytesPerNodeRound normalizes DigestBytes by population and
	// window — the steady per-node cost of running the repair digests.
	DigestBytesPerNodeRound float64
	// RepairBytesPerObject is (DigestBytes+PushBytes)/PushedObjects:
	// what moving one object cost, overhead included.
	RepairBytesPerObject float64
	// SteadyDigestBytesPerNodeRound is the same per-node cost over the
	// rounds after every compared mode had converged — what the digests
	// cost a cluster with nothing left to repair. Filled by
	// ChurnConvergenceCompare (the window is common to the modes).
	SteadyDigestBytesPerNodeRound float64

	// digestByRound[r] is DigestBytes as it stood after round r of the
	// window (index 0: what the churn burst itself had cost).
	digestByRound []uint64
}

// ChurnConvergence preloads a fully replicated key space, crashes
// KillFrac of the nodes and replaces them with fresh joiners, then
// measures how many rounds anti-entropy needs to restore full
// replication (every slice member holds every object of its slice) and
// how many digest/push bytes it spent doing so. WholeStore selects the
// repair digest mode, so the same run compared whole-store vs ranged is
// the paper-style ablation for the digest protocol.
func ChurnConvergence(opts ChurnConvergenceOptions) ChurnConvergenceResult {
	mode := "ranged"
	if opts.WholeStore {
		mode = "full-header"
	}
	c := NewCluster(ClusterConfig{
		N:    opts.N,
		Seed: opts.Seed,
		Node: core.Config{
			Slices:                opts.Slices,
			AntiEntropyEvery:      2, // aggressive: the regime under study
			AntiEntropyWholeStore: opts.WholeStore,
		},
	})
	defer c.Close()
	c.Run(40) // let slicing and the intra views converge

	keys := c.loadSlices(opts.Records, 128)
	c.ResetMetrics()

	// The burst: crash KillFrac of the population, spawn replacements.
	// Replacements join empty — they must learn their slice AND pull
	// its whole object set through anti-entropy.
	rng := sim.RNG(opts.Seed, 0xc09e)
	alive := c.AliveIDs()
	rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	kills := int(float64(len(alive)) * opts.KillFrac)
	res := ChurnConvergenceResult{Mode: mode, Rounds: opts.Rounds, ConvergedRound: -1}
	for _, id := range alive[:kills] {
		harvestRepairMetrics(c.Node(id).Metrics(), &res)
		c.Kill(id)
	}
	for i := 0; i < kills; i++ {
		c.Spawn()
	}

	// Nobody dies inside the window, so the dead nodes' digest bytes plus
	// the living ones' counters is the running total.
	dead := res.DigestBytes
	digestSoFar := func() uint64 {
		total := dead
		for _, n := range c.Nodes() {
			total += n.Metrics().Get(metrics.AntiEntropyDigestBytes)
		}
		return total
	}
	res.digestByRound = append(res.digestByRound, digestSoFar())
	for r := 1; r <= opts.Rounds; r++ {
		c.Run(1)
		cov := c.sliceCoverage(keys, 1, opts.Slices)
		res.MinCoverage = cov
		if cov >= 1 && res.ConvergedRound < 0 {
			res.ConvergedRound = r
			res.Converged = true
		}
		res.digestByRound = append(res.digestByRound, digestSoFar())
	}
	for _, n := range c.Nodes() {
		harvestRepairMetrics(n.Metrics(), &res)
	}
	if opts.N > 0 && opts.Rounds > 0 {
		res.DigestBytesPerNodeRound = float64(res.DigestBytes) / float64(opts.N) / float64(opts.Rounds)
	}
	if res.PushedObjects > 0 {
		res.RepairBytesPerObject = float64(res.DigestBytes+res.PushBytes) / float64(res.PushedObjects)
	}
	return res
}

// harvestRepairMetrics folds one node's repair counters into the
// result — called for nodes about to be killed (their counters vanish
// with them) and for the survivors at the end of the window.
func harvestRepairMetrics(m *metrics.NodeMetrics, res *ChurnConvergenceResult) {
	res.DigestBytes += m.Get(metrics.AntiEntropyDigestBytes)
	res.PushBytes += m.Get(metrics.AntiEntropyPushBytes)
	res.PushedObjects += m.Get(metrics.AntiEntropyPushedObjects)
}

// sliceCoverage returns the min over keys of
// holders-among-members / members-of-the-key's-slice: 1.0 means every
// node currently claiming a slice holds every preloaded object of that
// slice — the "replication factor restored" condition. A slice nobody
// claims counts as coverage 0 (its objects are unreachable).
func (c *Cluster) sliceCoverage(keys []string, version uint64, k int) float64 {
	members := make(map[int32][]*core.Node, k)
	for _, n := range c.Nodes() {
		members[n.Slice()] = append(members[n.Slice()], n)
	}
	min := 1.0
	for _, key := range keys {
		s := slicing.KeySlice(key, k)
		mates := members[s]
		if len(mates) == 0 {
			return 0
		}
		holders := 0
		for _, n := range mates {
			if _, _, ok, err := n.Store().Get(key, version); err == nil && ok {
				holders++
			}
		}
		if cov := float64(holders) / float64(len(mates)); cov < min {
			min = cov
		}
	}
	return min
}

// ChurnComparison is E17's table: the identical churn scenario under
// the two digest modes. DigestBytesRatio is the full-header reference's
// digest bytes over the window over ranged's, SteadyDigestRatio the same
// ratio per node and round once both had converged (zero when the
// divisor is).
type ChurnComparison struct {
	FullHeader, Ranged ChurnConvergenceResult
	DigestBytesRatio   float64
	SteadyDigestRatio  float64
}

// ChurnConvergenceCompare runs the identical churn scenario under the
// whole-store full-header reference and the ranged protocol. The
// steady-state column is taken over the rounds after the later of the
// two had converged (zero when one never did, or did on the window's
// last round).
func ChurnConvergenceCompare(opts ChurnConvergenceOptions) ChurnComparison {
	var c ChurnComparison
	opts.WholeStore = true
	c.FullHeader = ChurnConvergence(opts)
	opts.WholeStore = false
	c.Ranged = ChurnConvergence(opts)
	if c.Ranged.DigestBytes > 0 {
		c.DigestBytesRatio = float64(c.FullHeader.DigestBytes) / float64(c.Ranged.DigestBytes)
	}

	modes := []*ChurnConvergenceResult{&c.FullHeader, &c.Ranged}
	steadyFrom := 0
	for _, r := range modes {
		if !r.Converged {
			return c
		}
		steadyFrom = max(steadyFrom, r.ConvergedRound)
	}
	if rounds := opts.Rounds - steadyFrom; rounds > 0 && opts.N > 0 {
		for _, r := range modes {
			spent := r.digestByRound[opts.Rounds] - r.digestByRound[steadyFrom]
			r.SteadyDigestBytesPerNodeRound = float64(spent) / float64(opts.N) / float64(rounds)
		}
	}
	if c.Ranged.SteadyDigestBytesPerNodeRound > 0 {
		c.SteadyDigestRatio = c.FullHeader.SteadyDigestBytesPerNodeRound / c.Ranged.SteadyDigestBytesPerNodeRound
	}
	return c
}

// ChurnConvergenceGate is E17's: both digest modes restore full
// replication inside the window (and their accounting shows they ran),
// and the ranged rounds spend >= 5x less digest bandwidth than the
// full-header reference over the window and, once both have converged,
// >= 5x less per node and round. (Which round a mode converges on is
// chance at any one seed; the golden pins seed 42's.)
func ChurnConvergenceGate(c ChurnComparison) []string {
	var g gate
	for _, r := range []ChurnConvergenceResult{c.FullHeader, c.Ranged} {
		g.must(r.Converged, "%s mode never restored full replication (min coverage %.2f after %d rounds)", r.Mode, r.MinCoverage, r.Rounds)
		g.must(r.PushedObjects > 0, "%s mode pushed no objects — repair did not run", r.Mode)
		g.must(r.DigestBytes > 0, "%s mode reported no digest bytes — accounting broken", r.Mode)
	}
	g.must(c.DigestBytesRatio >= 5, "over the window, ranged digests are %.1fx cheaper than full headers, want >= 5x", c.DigestBytesRatio)
	g.must(c.SteadyDigestRatio >= 5, "converged, ranged digests are %.1fx cheaper than full headers, want >= 5x", c.SteadyDigestRatio)
	return g
}

// ChurnResult is -exp churn's two tables.
type ChurnResult struct {
	Availability []ChurnPoint
	Convergence  ChurnComparison
}

// runChurn is E5 (reads while churn runs) and then E17 (repair after a
// churn burst).
func runChurn(w io.Writer, p Params) Report {
	res := ChurnResult{Availability: writeAvailabilityUnderChurn(w, p)}

	title(w, "E17: churn convergence — ranged vs full-header repair digests")
	opts := ChurnConvergenceOptions{
		N: 400, Slices: 10, Records: 300, KillFrac: 0.3, Rounds: 140, Seed: p.Seed,
	}
	if p.Quick {
		opts = ChurnConvergenceOptions{
			N: 150, Slices: 5, Records: 120, KillFrac: 0.3, Rounds: 110, Seed: p.Seed,
		}
	}
	c := ChurnConvergenceCompare(opts)
	res.Convergence = c
	fmt.Fprintf(w, "%12s %10s %10s %12s %12s %14s %14s %14s\n",
		"mode", "converged", "round", "digest KiB", "push KiB", "digest B/n/r", "steady B/n/r", "repair B/obj")
	for _, r := range []ChurnConvergenceResult{c.FullHeader, c.Ranged} {
		fmt.Fprintf(w, "%12s %10v %10d %12.1f %12.1f %14.1f %14.1f %14.1f\n",
			r.Mode, r.Converged, r.ConvergedRound,
			float64(r.DigestBytes)/1024, float64(r.PushBytes)/1024,
			r.DigestBytesPerNodeRound, r.SteadyDigestBytesPerNodeRound, r.RepairBytesPerObject)
	}
	fmt.Fprintf(w, "digest bandwidth: ranged is %.1fx cheaper than full headers over the window, %.1fx once converged\n",
		c.DigestBytesRatio, c.SteadyDigestRatio)
	return Report{res, append(AvailabilityGate(res.Availability), ChurnConvergenceGate(c)...)}
}
