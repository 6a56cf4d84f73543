package lab

import (
	"fmt"
	"io"

	"dataflasks/internal/core"
	"dataflasks/internal/metrics"
	"dataflasks/internal/slicing"
)

// ---------------------------------------------------------------------------
// E18 — cold-join bootstrap: segment streaming vs object-wise repair

// BootstrapRecoveryOptions configures one cold-joiner recovery run.
type BootstrapRecoveryOptions struct {
	// N is the cluster size, Slices the slice count k.
	N, Slices int
	// Records is the preloaded key-space size.
	Records int
	// Rounds bounds the measured window after the join.
	Rounds int
	// AntiEntropyEvery is the repair cadence in gossip rounds
	// (default 2 — the same aggressive regime as the churn experiments,
	// so the object-wise baseline is as fast as repair gets).
	AntiEntropyEvery int
	// Segment enables the joiner's segment bootstrap; off measures the
	// object-wise anti-entropy baseline.
	Segment bool
	// DisablePeerBootstrap removes the protocol from the pre-existing
	// population — the mixed-version cluster where nobody can answer
	// the joiner's manifest probe and it must fall back cleanly.
	DisablePeerBootstrap bool
	// Seed drives every random choice.
	Seed uint64
}

// BootstrapRecoveryResult reports one cold-joiner run.
type BootstrapRecoveryResult struct {
	// Mode labels the recovery path ("segment", "object" or
	// "segment-fallback" for the mixed-version cluster).
	Mode string
	// JoinRounds is the first round (after the spawn) where the joiner
	// claimed a slice and held every preloaded object of it (-1 if the
	// window expired first).
	JoinRounds int
	// SliceObjects is how many preloaded objects the joiner's final
	// slice holds — the recovery workload size.
	SliceObjects int
	// BootstrapSegments and BootstrapBytes are the joiner's verified
	// segment-streaming counters; ChunksRejected counts failed
	// verifications.
	BootstrapSegments uint64
	BootstrapBytes    uint64
	ChunksRejected    uint64
	// FallbackObjects counts objects that reached the joiner via
	// anti-entropy pushes AFTER its segment bootstrap fell back.
	FallbackObjects uint64
	// FellBack reports the joiner gave up on segment streaming.
	FellBack bool
}

// BootstrapRecovery preloads a fully replicated key space, spawns one
// cold joiner and measures how many rounds it needs to hold its whole
// slice — via segment-streaming bootstrap (Segment) or via the
// object-wise anti-entropy baseline. The ratio of the two is the
// subsystem's headline number: bulk transfer moves a slice in a few
// rounds, while object repair pays the per-round push caps.
func BootstrapRecovery(opts BootstrapRecoveryOptions) BootstrapRecoveryResult {
	if opts.AntiEntropyEvery <= 0 {
		opts.AntiEntropyEvery = 2
	}
	mode := "object"
	if opts.Segment {
		mode = "segment"
		if opts.DisablePeerBootstrap {
			mode = "segment-fallback"
		}
	}
	c := NewCluster(ClusterConfig{
		N:    opts.N,
		Seed: opts.Seed,
		Node: core.Config{
			Slices:           opts.Slices,
			AntiEntropyEvery: opts.AntiEntropyEvery,
			DisableBootstrap: opts.DisablePeerBootstrap,
		},
	})
	defer c.Close()
	c.Run(40) // let slicing and the intra views converge

	keys := c.loadSlices(opts.Records, 128)
	c.ResetMetrics()

	joinerID := c.SpawnWith(func(cfg *core.Config) {
		cfg.Bootstrap = opts.Segment
		cfg.DisableBootstrap = false
	})
	joiner := c.Node(joinerID)

	res := BootstrapRecoveryResult{Mode: mode, JoinRounds: -1}
	for r := 1; r <= opts.Rounds; r++ {
		c.Run(1)
		if res.JoinRounds < 0 && joinerHoldsSlice(joiner, keys, opts.Slices) {
			res.JoinRounds = r
			break
		}
	}
	if s := joiner.Slice(); s != slicing.SliceUnknown {
		for _, key := range keys {
			if slicing.KeySlice(key, opts.Slices) == s {
				res.SliceObjects++
			}
		}
	}
	m := joiner.Metrics()
	res.BootstrapSegments = m.Get(metrics.BootstrapSegments)
	res.BootstrapBytes = m.Get(metrics.BootstrapBytes)
	res.ChunksRejected = m.Get(metrics.BootstrapChunksRejected)
	res.FallbackObjects = m.Get(metrics.BootstrapFallbackObjects)
	res.FellBack = joiner.BootstrapFellBack()
	return res
}

// joinerHoldsSlice reports whether the joiner claims a slice and holds
// every preloaded object mapping to it.
func joinerHoldsSlice(joiner *core.Node, keys []string, k int) bool {
	s := joiner.Slice()
	if s == slicing.SliceUnknown {
		return false
	}
	inSlice := 0
	for _, key := range keys {
		if slicing.KeySlice(key, k) != s {
			continue
		}
		inSlice++
		if _, _, ok, err := joiner.Store().Get(key, 1); err != nil || !ok {
			return false
		}
	}
	return inSlice > 0
}

// BootstrapRecoveryCompare runs the identical cold-join scenario with
// segment bootstrap on and off and returns both results.
func BootstrapRecoveryCompare(opts BootstrapRecoveryOptions) (segment, object BootstrapRecoveryResult) {
	opts.DisablePeerBootstrap = false
	opts.Segment = true
	segment = BootstrapRecovery(opts)
	opts.Segment = false
	object = BootstrapRecovery(opts)
	return segment, object
}

// BootstrapComparison is E18's table: the same cold join recovered by
// segment streaming, by object-wise repair, and by a joiner that wants
// segments among peers that do not speak the protocol.
type BootstrapComparison struct {
	Segment, Object, Fallback BootstrapRecoveryResult
	// RoundRatio is Object's JoinRounds over Segment's.
	RoundRatio float64
}

func runBootstrap(w io.Writer, p Params) Report {
	title(w, "E18: cold-join bootstrap — segment streaming vs object-wise repair")
	opts := BootstrapRecoveryOptions{
		N: 100, Slices: 5, Records: 10000, Rounds: 300, Seed: p.Seed,
	}
	if p.Quick {
		opts = BootstrapRecoveryOptions{
			N: 50, Slices: 5, Records: 5000, Rounds: 200, Seed: p.Seed,
		}
	}
	var c BootstrapComparison
	c.Segment, c.Object = BootstrapRecoveryCompare(opts)
	opts.Segment, opts.DisablePeerBootstrap = true, true
	// Repair runs beside the joiner's probes. At the cadence of the two
	// rows above it can refill the slice in fewer rounds than the probe
	// budget lasts (4 probes of 5 ticks) — on about half of all seeds it
	// did, and the row had no fallback to show. A slower cadence keeps
	// the joiner short of objects when it gives up.
	opts.AntiEntropyEvery = 5
	c.Fallback = BootstrapRecovery(opts)
	if c.Segment.JoinRounds > 0 {
		c.RoundRatio = float64(c.Object.JoinRounds) / float64(c.Segment.JoinRounds)
	}

	fmt.Fprintf(w, "%18s %8s %10s %10s %12s %10s %10s\n",
		"mode", "rounds", "sliceobjs", "segments", "KiB", "rejected", "fellback")
	for _, r := range []BootstrapRecoveryResult{c.Segment, c.Object, c.Fallback} {
		fmt.Fprintf(w, "%18s %8d %10d %10d %12.1f %10d %10v\n",
			r.Mode, r.JoinRounds, r.SliceObjects, r.BootstrapSegments,
			float64(r.BootstrapBytes)/1024, r.ChunksRejected, r.FellBack)
	}
	fmt.Fprintf(w, "cold join: segment bootstrap is %.1fx faster than object-wise repair\n", c.RoundRatio)
	return Report{c, append(BootstrapGate(c.Segment, c.Object), BootstrapFallbackGate(c.Fallback)...)}
}

// BootstrapGate is BootstrapRecoveryCompare's: both joiners recover the
// slice, the segment joiner by streaming (no fallback, something
// streamed) and at least 5x sooner than object-wise repair.
func BootstrapGate(segment, object BootstrapRecoveryResult) []string {
	if segment.JoinRounds < 0 || object.JoinRounds < 0 {
		return []string{fmt.Sprintf("join never completed: segment=%d object=%d rounds", segment.JoinRounds, object.JoinRounds)}
	}
	var g gate
	g.must(!segment.FellBack, "segment joiner fell back to object repair")
	g.must(segment.BootstrapSegments > 0 && segment.BootstrapBytes > 0, "segment joiner streamed nothing (segments=%d bytes=%d)", segment.BootstrapSegments, segment.BootstrapBytes)
	g.must(object.JoinRounds >= 5*segment.JoinRounds, "segment bootstrap %d rounds vs object repair %d rounds, want >= 5x", segment.JoinRounds, object.JoinRounds)
	return g
}

// BootstrapFallbackGate is the mixed-version cluster's: the joiner gives
// up on segments it cannot get, streams none, and still recovers its
// slice by repair, the fallback visible in bootstrap_fallback_objects.
func BootstrapFallbackGate(fallback BootstrapRecoveryResult) []string {
	var g gate
	g.must(fallback.FellBack, "joiner never fell back despite bootstrap-less peers")
	g.must(fallback.JoinRounds >= 0, "joiner never converged via anti-entropy after fallback")
	g.must(fallback.BootstrapSegments == 0, "streamed %d segments from peers without the protocol", fallback.BootstrapSegments)
	g.must(fallback.FallbackObjects > 0, "bootstrap_fallback_objects stayed zero: fallback repair was not counted")
	return g
}
