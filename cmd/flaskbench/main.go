// Command flaskbench regenerates every figure of the paper's
// evaluation (§VI) plus this reproduction's extension experiments, on
// the deterministic discrete-event simulator.
//
//	flaskbench -exp fig3            # paper Figure 3
//	flaskbench -exp fig4            # paper Figure 4
//	flaskbench -exp all             # everything
//	flaskbench -exp fig3 -quick     # reduced sweep for smoke runs
//
// Experiments: fig3 fig4 slicing correlated churn repair lb dht pss
// fanout reconfig putflood store compact pipeline resp bootstrap
// shards route.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dataflasks/internal/core"
	"dataflasks/internal/lab"
	"dataflasks/internal/store"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (fig3, fig4, slicing, correlated, churn, repair, lb, dht, pss, fanout, reconfig, putflood, store, compact, pipeline, resp, bootstrap, shards, route, all)")
		seed     = flag.Uint64("seed", 42, "simulation seed")
		quick    = flag.Bool("quick", false, "reduced scales for smoke runs")
		ns       = flag.String("ns", "", "override node sweep, e.g. 500,1000,2000")
		jsonPath = flag.String("json", "", "write machine-readable results to this file (currently: the churn and bootstrap experiments)")
	)
	flag.Parse()

	var sweep []int // nil: the scale's own sweep
	if *ns != "" {
		sweep = parseNs(*ns)
	}

	runners := map[string]func(){
		"fig3":       func() { defer timed()(); lab.WriteFigure3(os.Stdout, sweep, *seed, *quick) },
		"fig4":       func() { defer timed()(); lab.WriteFigure4(os.Stdout, sweep, *seed, *quick) },
		"slicing":    func() { runSlicing(*seed, *quick) },
		"correlated": func() { runCorrelated(*seed, *quick) },
		"churn":      func() { runChurn(*seed, *quick, *jsonPath) },
		"repair":     func() { runRepair(*seed, *quick) },
		"lb":         func() { runLB(*seed, *quick) },
		"dht":        func() { runDHT(*seed, *quick) },
		"pss":        func() { runPSS(*seed, *quick) },
		"fanout":     func() { runFanout(*seed, *quick) },
		"reconfig":   func() { runReconfig(*seed, *quick) },
		"putflood":   func() { runPutFlood(*seed, *quick) },
		"store":      func() { runStore(*quick) },
		"compact":    func() { runCompact(*quick) },
		"pipeline":   func() { runPipeline(*seed, *quick) },
		"resp":       func() { runRESP(*seed, *quick) },
		"bootstrap":  func() { runBootstrap(*seed, *quick, *jsonPath) },
		"shards":     func() { runShards(*seed, *quick, *jsonPath) },
		"route":      func() { runRoute(*seed, *quick) },
	}
	order := []string{"fig3", "fig4", "slicing", "correlated", "churn", "repair", "lb", "dht", "pss", "fanout", "reconfig", "putflood", "store", "compact", "pipeline", "resp", "bootstrap", "shards", "route"}

	if *exp == "all" {
		for _, name := range order {
			runners[name]()
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "flaskbench: unknown experiment %q (want one of %s, all)\n",
			*exp, strings.Join(order, ", "))
		os.Exit(2)
	}
	run()
}

func parseNs(s string) []int {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "flaskbench: bad -ns element %q\n", p)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func header(title string) func() {
	fmt.Printf("\n=== %s ===\n", title)
	return timed()
}

// writeJSON writes an experiment's machine-readable results (-json).
func writeJSON(path string, out interface{}) {
	data, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskbench: write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// timed closes an experiment whose table internal/lab writes, heading
// included (the ones with a golden there); the wall clock stays here.
func timed() func() {
	start := time.Now()
	return func() { fmt.Printf("--- done in %s\n", time.Since(start).Round(time.Millisecond)) }
}

func runSlicing(seed uint64, quick bool) {
	done := header("E3: slicing convergence and accuracy")
	defer done()
	n, rounds := 1000, 60
	if quick {
		n, rounds = 300, 40
	}
	for _, churnRate := range []float64{0, 0.01} {
		for _, slicer := range []core.SlicerKind{core.SlicerRank, core.SlicerSwap} {
			points := lab.SlicingConvergence(n, 10, rounds, churnRate, slicer, seed)
			last := points[len(points)-1]
			fmt.Printf("slicer=%-6s churn=%.2f/round: accuracy r10=%.2f r%d=%.2f undecided=%d\n",
				slicerName(slicer), churnRate, points[9].Accuracy, rounds, last.Accuracy, last.Undecided)
		}
	}
}

func slicerName(k core.SlicerKind) string {
	switch k {
	case core.SlicerRank:
		return "rank"
	case core.SlicerSwap:
		return "swap"
	case core.SlicerStatic:
		return "static"
	default:
		return "?"
	}
}

func runCorrelated(seed uint64, quick bool) {
	done := header("E4: correlated slice failure — adaptive vs coin-toss slicing (§IV-A)")
	defer done()
	n := 500
	if quick {
		n = 200
	}
	for _, slicer := range []core.SlicerKind{core.SlicerRank, core.SlicerStatic} {
		res := lab.CorrelatedFailure(n, 10, 0.8, slicer, 8, seed)
		fmt.Printf("slicer=%-6s slice %d: members %d → killed %d → recovery over 40 rounds: %v\n",
			slicerName(res.Slicer), res.TargetSlice, res.BeforeMembers, res.Killed, res.AfterMembers)
	}
}

func runChurn(seed uint64, quick bool, jsonPath string) {
	done := timed()
	lab.WriteAvailabilityUnderChurn(os.Stdout, seed, quick)
	done()
	runChurnConvergence(seed, quick, jsonPath)
}

// runChurnConvergence is E17: after a churn burst, how fast does
// anti-entropy restore full replication, and what does the repair
// digest cost — rounds that open with range sums and digest only the
// ranges that differ, vs whole-store Bloom summaries, vs the whole-store
// full-header baseline. The CI smoke step runs it with hard gates: all
// three modes must converge; Bloom must spend >= 5x less digest
// bandwidth than full headers; ranged must converge no later than Bloom
// + 2 rounds, spend no more digest bytes than Bloom over the window,
// and >= 5x fewer per node per round once everything has converged.
func runChurnConvergence(seed uint64, quick bool, jsonPath string) {
	defer timed()()
	full, bloom, ranged, ratio, steadyRatio := lab.WriteChurnConvergence(os.Stdout, seed, quick)

	if jsonPath != "" {
		out := struct {
			Experiment        string                     `json:"experiment"`
			Seed              uint64                     `json:"seed"`
			Quick             bool                       `json:"quick"`
			FullHeader        lab.ChurnConvergenceResult `json:"full_header"`
			Bloom             lab.ChurnConvergenceResult `json:"bloom"`
			Ranged            lab.ChurnConvergenceResult `json:"ranged"`
			DigestBytesRatio  float64                    `json:"digest_bytes_ratio"`
			SteadyDigestRatio float64                    `json:"steady_digest_ratio"`
		}{"churn-convergence", seed, quick, full, bloom, ranged, ratio, steadyRatio}
		writeJSON(jsonPath, out)
	}

	// Regression gates (the CI smoke step relies on the exit code).
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "flaskbench: churn experiment regressed ("+format+")\n", args...)
		os.Exit(1)
	}
	if !full.Converged || !bloom.Converged || !ranged.Converged {
		fail("a mode failed to restore full replication")
	}
	if ratio < 5 {
		fail("bloom digest saving %.1fx < 5x", ratio)
	}
	if ranged.ConvergedRound > bloom.ConvergedRound+2 {
		fail("ranged converged at round %d, bloom at %d", ranged.ConvergedRound, bloom.ConvergedRound)
	}
	if ranged.DigestBytes > bloom.DigestBytes {
		fail("ranged spent %d digest bytes over the window, bloom %d", ranged.DigestBytes, bloom.DigestBytes)
	}
	if steadyRatio < 5 {
		fail("converged, ranged digests are %.1fx cheaper than bloom's, want >= 5x", steadyRatio)
	}
}

// runBootstrap is E18: cold-joiner recovery — segment-streaming
// bootstrap vs the object-wise anti-entropy baseline, plus the
// mixed-version cluster where no peer speaks the protocol. The CI
// smoke step runs it with hard gates: every mode must converge, the
// mixed cluster must fall back cleanly (with the fallback visible in
// bootstrap_fallback_objects), and segment bootstrap must recover the
// slice >= 5x faster than object repair.
func runBootstrap(seed uint64, quick bool, jsonPath string) {
	done := header("E18: cold-join bootstrap — segment streaming vs object-wise repair")
	defer done()
	opts := lab.BootstrapRecoveryOptions{
		N: 100, Slices: 5, Records: 10000, Rounds: 300, Seed: seed,
	}
	if quick {
		opts = lab.BootstrapRecoveryOptions{
			N: 50, Slices: 5, Records: 5000, Rounds: 200, Seed: seed,
		}
	}
	segment, object := lab.BootstrapRecoveryCompare(opts)
	opts.Segment, opts.DisablePeerBootstrap = true, true
	// Repair runs beside the joiner's probes. At the cadence of the two
	// rows above it can refill the slice in fewer rounds than the probe
	// budget lasts (4 probes of 5 ticks) — on about half of all seeds it
	// did, and the row had no fallback to show. A slower cadence keeps
	// the joiner short of objects when it gives up.
	opts.AntiEntropyEvery = 5
	fallback := lab.BootstrapRecovery(opts)

	fmt.Printf("%18s %8s %10s %10s %12s %10s %10s\n",
		"mode", "rounds", "sliceobjs", "segments", "KiB", "rejected", "fellback")
	for _, r := range []lab.BootstrapRecoveryResult{segment, object, fallback} {
		fmt.Printf("%18s %8d %10d %10d %12.1f %10d %10v\n",
			r.Mode, r.JoinRounds, r.SliceObjects, r.BootstrapSegments,
			float64(r.BootstrapBytes)/1024, r.ChunksRejected, r.FellBack)
	}
	ratio := 0.0
	if segment.JoinRounds > 0 {
		ratio = float64(object.JoinRounds) / float64(segment.JoinRounds)
	}
	fmt.Printf("cold join: segment bootstrap is %.1fx faster than object-wise repair\n", ratio)

	if jsonPath != "" {
		out := struct {
			Experiment string                      `json:"experiment"`
			Seed       uint64                      `json:"seed"`
			Quick      bool                        `json:"quick"`
			Segment    lab.BootstrapRecoveryResult `json:"segment"`
			Object     lab.BootstrapRecoveryResult `json:"object"`
			Fallback   lab.BootstrapRecoveryResult `json:"fallback"`
			RoundRatio float64                     `json:"round_ratio"`
		}{"bootstrap-recovery", seed, quick, segment, object, fallback, ratio}
		writeJSON(jsonPath, out)
	}

	// Regression gates (the CI smoke step relies on the exit code).
	if segment.JoinRounds < 0 || object.JoinRounds < 0 || fallback.JoinRounds < 0 {
		fmt.Fprintln(os.Stderr, "flaskbench: bootstrap experiment regressed (a mode never recovered the slice)")
		os.Exit(1)
	}
	if segment.FellBack {
		fmt.Fprintln(os.Stderr, "flaskbench: bootstrap experiment regressed (segment joiner fell back to object repair)")
		os.Exit(1)
	}
	if !fallback.FellBack || fallback.FallbackObjects == 0 {
		fmt.Fprintln(os.Stderr, "flaskbench: bootstrap experiment regressed (mixed-version cluster did not fall back cleanly)")
		os.Exit(1)
	}
	if ratio < 5 {
		fmt.Fprintf(os.Stderr, "flaskbench: bootstrap experiment regressed (segment speedup %.1fx < 5x)\n", ratio)
		os.Exit(1)
	}
}

// runShards is E19: the sharded data-plane runtime. Two halves, both
// gated. Scaling: one node's put/get throughput at 1 vs 8 shards — on
// a multi-core host (>= 4 cores) 8 shards must clear 2x the
// single-shard rate, and the CI smoke step relies on the exit code; on
// smaller hosts the ratio is report-only (goroutines cannot outrun one
// core). The scaling half ends with the burst rows: 32 durable entry
// puts kept in flight against the fsyncing log engine, where a shard
// must commit more than one put per store write (>= 1.5 with all 32 in
// one shard's mailbox; the 8-shard row, four puts per shard, is
// reported). Equivalence: a 1-shard and an 8-shard cluster fed the same
// seeded workload must converge to identical per-node stores — that
// gate holds everywhere.
func runShards(seed uint64, quick bool, jsonPath string) {
	done := header("E19: data-plane sharding — throughput scaling and state equivalence")
	defer done()
	cores := runtime.GOMAXPROCS(0)
	gateScaling := cores >= 4

	scaleOpts := lab.ShardScalingOptions{
		Shards: []int{1, 8}, Keys: 4096, Producers: 4,
		Duration: 2 * time.Second, Seed: seed,
	}
	eqOpts := lab.ShardEquivalenceOptions{
		N: 16, Slices: 4, Keys: 90, Shards: 8, Seed: seed,
	}
	if quick {
		scaleOpts.Duration = 500 * time.Millisecond
		eqOpts = lab.ShardEquivalenceOptions{
			N: 10, Slices: 3, Keys: 36, Shards: 8, Seed: seed,
		}
	}

	results := lab.ShardScaling(scaleOpts)
	fmt.Printf("%8s %12s %10s %14s\n", "shards", "ops", "dropped", "ops/sec")
	for _, r := range results {
		fmt.Printf("%8d %12d %10d %14.0f\n", r.Shards, r.Ops, r.Dropped, r.OpsPerSec)
	}
	ratio := 0.0
	if len(results) == 2 && results[0].OpsPerSec > 0 {
		ratio = results[1].OpsPerSec / results[0].OpsPerSec
	}
	fmt.Printf("scaling: %d shards serve %.2fx the single-shard rate (%d cores, gate %s)\n",
		results[len(results)-1].Shards, ratio, cores, map[bool]string{true: "enforced", false: "report-only"}[gateScaling])

	burstDir, err := os.MkdirTemp("", "flaskbench-burst-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskbench: shards burst: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(burstDir)
	fmt.Printf("burst: 32 entry puts in flight, log engine, fsync on\n%8s %12s %10s %12s %14s\n",
		"shards", "puts", "commits", "puts/commit", "ops/sec")
	var burst []lab.ShardPutBurstResult
	for _, shards := range scaleOpts.Shards {
		r, err := lab.ShardPutBurst(lab.ShardPutBurstOptions{
			Dir: filepath.Join(burstDir, strconv.Itoa(shards)), Shards: shards,
			InFlight: 32, Duration: scaleOpts.Duration, Seed: seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "flaskbench: shards burst: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%8d %12d %10d %12.2f %14.0f\n", r.Shards, r.Puts, r.Commits, r.PutsPerCommit, r.OpsPerSec)
		burst = append(burst, r)
	}

	eq, err := lab.ShardEquivalence(eqOpts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskbench: shards equivalence: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("equivalence: equal=%v nodes=%d objects=%d waited=%s\n",
		eq.Equal, eq.Nodes, eq.Objects, eq.Waited.Round(time.Millisecond))

	if jsonPath != "" {
		out := struct {
			Experiment   string                     `json:"experiment"`
			Seed         uint64                     `json:"seed"`
			Quick        bool                       `json:"quick"`
			Cores        int                        `json:"cores"`
			GateEnforced bool                       `json:"gate_enforced"`
			Scaling      []lab.ShardScalingResult   `json:"scaling"`
			Ratio        float64                    `json:"ratio"`
			Burst        []lab.ShardPutBurstResult  `json:"burst"`
			Equivalence  lab.ShardEquivalenceResult `json:"equivalence"`
		}{"shards", seed, quick, cores, gateScaling, results, ratio, burst, eq}
		writeJSON(jsonPath, out)
	}

	// Regression gates (the CI smoke step relies on the exit code).
	if !eq.Equal {
		fmt.Fprintf(os.Stderr, "flaskbench: shards experiment regressed (sharded cluster diverged at node %s)\n", eq.Mismatch)
		os.Exit(1)
	}
	if eq.Objects == 0 {
		fmt.Fprintln(os.Stderr, "flaskbench: shards experiment regressed (equivalence converged on empty stores)")
		os.Exit(1)
	}
	if gateScaling && ratio < 2 {
		fmt.Fprintf(os.Stderr, "flaskbench: shards experiment regressed (8-shard speedup %.2fx < 2x on %d cores)\n", ratio, cores)
		os.Exit(1)
	}
	if burst[0].PutsPerCommit < 1.5 {
		fmt.Fprintf(os.Stderr, "flaskbench: shards experiment regressed (%.2f puts per commit < 1.5 with 32 puts in flight on %d shard)\n",
			burst[0].PutsPerCommit, burst[0].Shards)
		os.Exit(1)
	}
}

// runRoute is E20: the directed global hop against the paper's flood.
// Gated, and the CI smoke step relies on the exit code: at both scales
// directed routing must spend at least 3x fewer data messages per op
// than the same workload with Flood forced on every request and fail
// no more ops, and under churn its read availability must stay within
// two points of the flood's.
func runRoute(seed uint64, quick bool) {
	defer timed()()
	rows, churnDirected, churnFlood := lab.WriteRoutingAblation(os.Stdout, seed, quick)
	failed := false
	for i := 0; i+1 < len(rows); i += 2 {
		directed, flood := rows[i], rows[i+1]
		if directed.DataMsgsPerOp*3 > flood.DataMsgsPerOp {
			fmt.Fprintf(os.Stderr, "flaskbench: route experiment regressed (N=%d k=%d: directed %.1f msgs/op not 3x below flood %.1f)\n",
				directed.N, directed.K, directed.DataMsgsPerOp, flood.DataMsgsPerOp)
			failed = true
		}
		if directed.Failed > flood.Failed {
			fmt.Fprintf(os.Stderr, "flaskbench: route experiment regressed (N=%d k=%d: directed routing failed %d ops, flood %d)\n",
				directed.N, directed.K, directed.Failed, flood.Failed)
			failed = true
		}
	}
	if churnDirected.Availability < churnFlood.Availability-0.02 {
		fmt.Fprintln(os.Stderr, "flaskbench: route experiment regressed (directed routing lost availability under churn)")
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func runRepair(seed uint64, quick bool) {
	done := header("E6: replication repair via anti-entropy (§VII future work)")
	defer done()
	n := 400
	if quick {
		n = 200
	}
	res := lab.ReplicationRepair(n, 10, 5, seed)
	fmt.Printf("object %q: %d replicas → kill half → %d; recovery:\n",
		res.Key, res.InitialCount, res.AfterKillCount)
	for _, p := range res.Timeline {
		fmt.Printf("  +%2d rounds: %d replicas\n", p.Round, p.Replicas)
	}
}

func runLB(seed uint64, quick bool) {
	defer timed()()
	rows := lab.WriteLoadBalancerAblation(os.Stdout, seed, quick)
	if broken := lab.LoadBalancerGate(rows); len(broken) > 0 {
		for _, msg := range broken {
			fmt.Fprintln(os.Stderr, "flaskbench: lb experiment regressed:", msg)
		}
		os.Exit(1)
	}
}

func runDHT(seed uint64, quick bool) {
	done := header("E8: DataFlasks vs structured DHT baseline under churn (§I)")
	defer done()
	n, ops := 300, 100
	if quick {
		n, ops = 150, 50
	}
	rates := []float64{0, 0.01, 0.02, 0.05}
	rows := lab.CompareWithDHT(n, 10, ops, rates, seed)
	fmt.Printf("%14s %16s %16s %14s %14s\n",
		"churn/round", "flasks avail", "dht avail", "flasks msgs", "dht msgs")
	for _, r := range rows {
		fmt.Printf("%14.3f %15.1f%% %15.1f%% %14.1f %14.1f\n",
			r.ChurnPerRound, r.FlasksAvail*100, r.DHTAvail*100, r.FlasksMsgs, r.DHTMsgs)
	}
}

func runPSS(seed uint64, quick bool) {
	done := header("E9: peer-sampling overlay quality")
	defer done()
	n := 1000
	if quick {
		n = 300
	}
	for _, kind := range []core.PSSKind{core.PSSCyclon, core.PSSNewscast} {
		q := lab.MeasurePSSQuality(n, 50, kind, seed)
		name := "cyclon"
		if kind == core.PSSNewscast {
			name = "newscast"
		}
		fmt.Printf("%-8s in-degree: mean=%.1f p50=%d p95=%d p99=%d min=%d max=%d zero-in-degree=%d\n",
			name, q.InDegree.Mean, q.InDegree.P50, q.InDegree.P95, q.InDegree.P99,
			q.InDegree.Min, q.InDegree.Max, q.ZeroInDegree)
	}
}

func runFanout(seed uint64, quick bool) {
	done := header("E10: fanout sweep vs atomic-delivery probability (§II theory)")
	defer done()
	n, trials := 500, 30
	if quick {
		n, trials = 200, 15
	}
	points := lab.FanoutSweep(n, []float64{-2, -1, 0, 1, 2}, trials, seed)
	fmt.Printf("%6s %8s %12s %14s %14s\n", "c", "fanout", "mean cover", "measured p", "theory p")
	for _, p := range points {
		fmt.Printf("%6.1f %8d %11.1f%% %14.2f %14.2f\n",
			p.C, p.Fanout, p.MeanCover*100, p.MeasuredP, p.TheoryP)
	}
}

func runReconfig(seed uint64, quick bool) {
	done := header("E11: dynamic slice-count reconfiguration (§IV-C)")
	defer done()
	n := 400
	if quick {
		n = 200
	}
	res := lab.SliceReconfiguration(n, 10, 5, seed)
	fmt.Printf("object %q: k %d→%d, replicas before=%d\n",
		res.Key, res.OldSlices, res.NewSlices, res.BeforeReps)
	for _, p := range res.Timeline {
		fmt.Printf("  +%2d rounds: replicas=%d slice-accuracy=%.2f\n",
			p.Round, p.Replicas, p.SliceAccuracy)
	}
}

func runPutFlood(seed uint64, quick bool) {
	done := header("E12: bounded-put-flood ablation (§IV-B optimization on writes)")
	defer done()
	n := 400
	if quick {
		n = 200
	}
	for _, r := range lab.PutFloodAblation(n, 10, seed) {
		fmt.Printf("bounded=%-5v msgs/node=%8.1f data-sends/node=%8.1f reps: immediate=%d repaired=%d ok=%d fail=%d\n",
			r.Bounded, r.MsgsPerNode, r.DataPerNode, r.ImmediateReps, r.RepairedReps, r.OK, r.Failed)
	}
}

func runStore(quick bool) {
	done := header("E13: store engines — put/get throughput and recovery time")
	defer done()
	puts, fsyncPuts := 20000, 2000
	if quick {
		puts, fsyncPuts = 4000, 400
	}
	fmt.Printf("%12s %8s %12s %12s %12s %10s\n",
		"engine", "fsync", "puts", "put ops/s", "get ops/s", "recover")
	for _, row := range []struct {
		name  string
		fsync bool
		open  func(dir string, fsync bool) (store.Store, error)
	}{
		{"memory", false, func(string, bool) (store.Store, error) { return store.NewMemory(), nil }},
		{"log", false, openLog},
		{"log", true, openLog},
	} {
		n := puts
		if row.fsync {
			n = fsyncPuts // every put waits for a disk flush
		}
		res, err := measureStore(row.open, row.name, row.fsync, n)
		if err != nil {
			fmt.Printf("%12s %8v measurement failed: %v\n", row.name, row.fsync, err)
			continue
		}
		recover := "-"
		if res.recover > 0 {
			recover = res.recover.Round(time.Millisecond).String()
		}
		fmt.Printf("%12s %8v %12d %12.0f %12.0f %10s\n",
			row.name, row.fsync, n, res.putOps, res.getOps, recover)
	}
}

// runCompact measures the two claims of the non-blocking compaction
// work: (a) foreground Get/Put latency stays bounded while a
// rate-limited compaction pass churns in the background, and (b) the
// batched write path amortizes group commit — PutBatch of 64 objects
// versus 64 sequential fsync'd Puts.
func runCompact(quick bool) {
	done := header("E14: log engine — foreground latency under compaction, batched write path")
	defer done()
	n, window := 20000, 1500*time.Millisecond
	if quick {
		n, window = 4000, 700*time.Millisecond
	}
	const valSize = 1024

	// Errors here are regressions (a Get failing or corrupting during
	// an active pass), not reporting noise: fail hard so the CI smoke
	// step catches them.
	baseGet, basePut, err := compactLatency(n, window, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskbench: compact baseline: %v\n", err)
		os.Exit(1)
	}
	churnGet, churnPut, err := compactLatency(n, window, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskbench: compact under load: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%24s %14s %14s\n", "", "get p99", "put p99")
	fmt.Printf("%24s %14s %14s\n", "no compaction", baseGet, basePut)
	fmt.Printf("%24s %14s %14s\n", "compaction active", churnGet, churnPut)
	fmt.Printf("%24s %13.2fx %13.2fx\n", "ratio", ratio(churnGet, baseGet), ratio(churnPut, basePut))

	seq, batch, err := putBatchHeadToHead(64, valSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskbench: putbatch: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("64 fsync'd Puts: %s; PutBatch(64): %s — %.1fx\n",
		seq.Round(time.Microsecond), batch.Round(time.Microsecond), ratio(seq, batch))
}

// runPipeline measures the async/batched client API: the same put
// workload as one blocking op at a time, as pipelined futures, and as
// per-slice batches on the PutBatch wire path. Virtual time makes the
// speedups deterministic; the pipelined and batch modes are expected
// to beat blocking by >= 5x at the same ack level, so the CI smoke
// step fails hard when they do not.
func runPipeline(seed uint64, quick bool) {
	defer timed()()
	for _, r := range lab.WritePipelineComparison(os.Stdout, seed, quick) {
		if r.Failed > 0 || (r.Mode != "blocking" && r.Speedup < 5) {
			fmt.Fprintln(os.Stderr, "flaskbench: pipeline experiment regressed (failures or speedup < 5x)")
			os.Exit(1)
		}
	}
}

// runRESP measures the RESP gateway (E16): the same SET workload over
// raw RESP TCP — one command per round trip vs the whole batch
// pipelined down one connection — plus the native future-based client
// as the no-framing reference. The cluster's in-process fabric runs
// the LAN latency model, so the blocking baseline pays a real network
// round trip per command; pipelined RESP is expected to beat it by
// >= 5x (it overlaps every op through the gateway's completion queue),
// and the CI smoke step fails hard when it does not.
func runRESP(seed uint64, quick bool) {
	done := header("E16: RESP gateway — blocking vs pipelined RESP vs native futures (LAN model)")
	defer done()
	n, slices, ops, period := 40, 4, 400, 30*time.Millisecond
	if quick {
		n, slices, ops, period = 24, 3, 200, 25*time.Millisecond
	}
	rows, err := lab.RESPComparison(n, slices, ops, period, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flaskbench: resp experiment: %v\n", err)
		os.Exit(1)
	}
	var blocking time.Duration
	for _, r := range rows {
		if r.Mode == "resp-blocking" {
			blocking = r.Elapsed
		}
	}
	fmt.Printf("%18s %6s %6s %6s %14s %12s %9s\n",
		"mode", "ops", "ok", "fail", "elapsed", "ops/s", "speedup")
	failed := false
	for _, r := range rows {
		speedup := 0.0
		if r.Elapsed > 0 {
			speedup = float64(blocking) / float64(r.Elapsed)
		}
		fmt.Printf("%18s %6d %6d %6d %14s %12.0f %8.1fx\n",
			r.Mode, r.Ops, r.OK, r.Failed, r.Elapsed.Round(time.Millisecond),
			r.OpsPerSec, speedup)
		// Epidemic routing is probabilistic; a stray failure is not a
		// regression, a failure rate is.
		if r.Failed > r.Ops/20 {
			failed = true
		}
		if r.Mode == "resp-pipelined" && speedup < 5 {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "flaskbench: resp experiment regressed (failure rate > 5% or pipelined speedup < 5x)")
		os.Exit(1)
	}
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// compactLatency fills a log store with compaction debt (small
// segments, most objects deleted) and measures foreground Get/Put p99
// over a fixed wall-clock window. With compactDuring, deletes run
// under an aggressive live-ratio threshold and a copy-rate cap sized
// so the background pass cycles copy bursts and throttle sleeps for
// the whole window (pass duration ≈ 4× the window); without it,
// compaction is disabled and the same debt just sits there.
func compactLatency(n int, window time.Duration, compactDuring bool) (getP99, putP99 time.Duration, err error) {
	dir, err := os.MkdirTemp("", "flaskbench-compact-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	val := make([]byte, 1024)
	opts := store.LogOptions{SegmentMaxBytes: 1 << 20, CompactLiveRatio: -1}
	if compactDuring {
		// The pass's charged work is roughly the whole data set (reads)
		// plus the ~10% live copies; spread it over ~4 windows.
		opts.CompactLiveRatio = 0.95
		work := int64(n) * int64(len(val)) * 11 / 10
		opts.CompactRateBytesPerSec = work / int64(4*window/time.Second+1)
	}
	l, err := store.OpenLog(dir, opts)
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()

	key := func(i int) string { return fmt.Sprintf("key%08d", i) }
	for i := 0; i < n; i += 256 {
		batch := make([]store.Object, 0, 256)
		for j := i; j < i+256 && j < n; j++ {
			batch = append(batch, store.Object{Key: key(j), Version: 1, Value: val})
		}
		if err := l.PutBatch(batch); err != nil {
			return 0, 0, err
		}
	}
	// Kill 90%: sealed segments collapse below any live-ratio
	// threshold. With compaction enabled the deletes kick the
	// background pass, which starts copying (rate-limited) right away.
	for i := 0; i < n*9/10; i++ {
		if _, err := l.Delete(key(i), 1); err != nil {
			return 0, 0, err
		}
	}

	survivors := n - n*9/10
	rng := rand.New(rand.NewPCG(7, 13))
	var getLat, putLat []time.Duration
	deadline := time.Now().Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		k := key(n*9/10 + rng.IntN(survivors))
		start := time.Now()
		if _, _, ok, err := l.Get(k, store.Latest); err != nil || !ok {
			return 0, 0, fmt.Errorf("get %s: ok=%v err=%v", k, ok, err)
		}
		getLat = append(getLat, time.Since(start))
		if i%4 == 0 {
			start = time.Now()
			if err := l.Put(fmt.Sprintf("new%08d", i), 1, val); err != nil {
				return 0, 0, err
			}
			putLat = append(putLat, time.Since(start))
		}
	}
	return p99(getLat), p99(putLat), nil
}

func p99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)*99/100]
}

// putBatchHeadToHead times n sequential fsync'd Puts against one
// PutBatch of n objects on a fresh fsync'd log store.
func putBatchHeadToHead(n, valSize int) (seq, batch time.Duration, err error) {
	dir, err := os.MkdirTemp("", "flaskbench-batch-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	l, err := store.OpenLog(dir, store.LogOptions{Fsync: true})
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	val := make([]byte, valSize)

	start := time.Now()
	for i := 0; i < n; i++ {
		if err := l.Put(fmt.Sprintf("seq%08d", i), 1, val); err != nil {
			return 0, 0, err
		}
	}
	seq = time.Since(start)

	objs := make([]store.Object, n)
	for i := range objs {
		objs[i] = store.Object{Key: fmt.Sprintf("batch%08d", i), Version: 1, Value: val}
	}
	start = time.Now()
	if err := l.PutBatch(objs); err != nil {
		return 0, 0, err
	}
	batch = time.Since(start)
	return seq, batch, nil
}

func openLog(dir string, fsync bool) (store.Store, error) {
	return store.OpenLog(dir, store.LogOptions{Fsync: fsync})
}

type storeResult struct {
	putOps  float64
	getOps  float64
	recover time.Duration
}

// measureStore drives one engine: n puts from 8 concurrent writers
// (fsync engines coalesce via group commit), n random gets, then — for
// persistent engines — a reopen to time recovery.
func measureStore(open func(dir string, fsync bool) (store.Store, error), name string, fsync bool, n int) (storeResult, error) {
	dir, err := os.MkdirTemp("", "flaskbench-store-")
	if err != nil {
		return storeResult{}, err
	}
	defer os.RemoveAll(dir)
	s, err := open(dir, fsync)
	if err != nil {
		return storeResult{}, err
	}
	val := make([]byte, 1024)
	const writers = 8
	start := time.Now()
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += writers {
				if err := s.Put(fmt.Sprintf("key%08d", i), 1, val); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		s.Close()
		return storeResult{}, firstErr
	}
	res := storeResult{putOps: float64(n) / time.Since(start).Seconds()}

	rng := rand.New(rand.NewPCG(1, 9))
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, _, ok, err := s.Get(fmt.Sprintf("key%08d", rng.IntN(n)), store.Latest); err != nil || !ok {
			s.Close()
			return storeResult{}, fmt.Errorf("get: ok=%v err=%v", ok, err)
		}
	}
	res.getOps = float64(n) / time.Since(start).Seconds()
	if err := s.Close(); err != nil {
		return storeResult{}, err
	}

	if name != "memory" {
		start = time.Now()
		s2, err := open(dir, fsync)
		if err != nil {
			return storeResult{}, err
		}
		res.recover = time.Since(start)
		if s2.Count() != n {
			s2.Close()
			return storeResult{}, fmt.Errorf("recovered %d of %d objects", s2.Count(), n)
		}
		s2.Close()
	}
	return res, nil
}
