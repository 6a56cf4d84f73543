package lab

import (
	"fmt"
	"io"
	"math/rand/v2"

	"dataflasks/internal/churn"
	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/dht"
	"dataflasks/internal/gossip"
	"dataflasks/internal/metrics"
	"dataflasks/internal/sim"
	"dataflasks/internal/store"
	"dataflasks/internal/workload"
)

// ---------------------------------------------------------------------------
// E3 — slicing convergence and accuracy (with and without churn)

// SlicingPoint is one round's measurement.
type SlicingPoint struct {
	Round    int
	Accuracy float64
	// Undecided counts nodes still reporting SliceUnknown.
	Undecided int
}

// SlicingConvergence runs n nodes with k slices for rounds rounds,
// sampling accuracy each round while injecting churnRate replacement
// churn per round.
func SlicingConvergence(n, k, rounds int, churnRate float64, slicer core.SlicerKind, seed uint64) []SlicingPoint {
	c := NewCluster(ClusterConfig{
		N:    n,
		Seed: seed,
		Node: core.Config{Slices: k, Slicer: slicer},
	})
	inj := churn.NewInjector(churnRate, sim.RNG(seed, 0xc42))
	points := make([]SlicingPoint, 0, rounds)
	for r := 1; r <= rounds; r++ {
		c.Run(1)
		if churnRate > 0 {
			inj.Tick(c)
		}
		points = append(points, SlicingPoint{
			Round:     r,
			Accuracy:  c.SliceAccuracy(),
			Undecided: c.SliceSizes()[-1],
		})
	}
	return points
}

// SlicingRun is one slicer's accuracy series at one churn rate.
type SlicingRun struct {
	Slicer        string
	ChurnPerRound float64
	Points        []SlicingPoint
}

var slicerName = map[core.SlicerKind]string{core.SlicerRank: "rank", core.SlicerSwap: "swap", core.SlicerStatic: "static"}

func runSlicing(w io.Writer, p Params) Report {
	title(w, "E3: slicing convergence and accuracy")
	n, rounds := 1000, 60
	if p.Quick {
		n, rounds = 300, 40
	}
	var runs []SlicingRun
	for _, churnRate := range []float64{0, 0.01} {
		for _, slicer := range []core.SlicerKind{core.SlicerRank, core.SlicerSwap} {
			run := SlicingRun{slicerName[slicer], churnRate, SlicingConvergence(n, 10, rounds, churnRate, slicer, p.Seed)}
			runs = append(runs, run)
			var r10 SlicingPoint // stays zero on a run SlicingGate reports as too short
			if len(run.Points) >= 10 {
				r10 = run.Points[9]
			}
			last := run.Points[len(run.Points)-1]
			fmt.Fprintf(w, "slicer=%-6s churn=%.2f/round: accuracy r10=%.2f r%d=%.2f undecided=%d\n",
				run.Slicer, churnRate, r10.Accuracy, last.Round, last.Accuracy, last.Undecided)
		}
	}
	return Report{runs, SlicingGate(runs)}
}

// SlicingGate is E3's: every series reaches the table's round-10 column,
// and without churn the rank slicer (the default) ends accurate, with
// every node decided, and no worse than it was at round 5.
func SlicingGate(runs []SlicingRun) []string {
	var g gate
	for _, run := range runs {
		if len(run.Points) < 10 {
			g.must(false, "slicer %s: %d rounds measured, the table reads round 10", run.Slicer, len(run.Points))
		} else if run.Slicer == "rank" && run.ChurnPerRound == 0 {
			r5, last := run.Points[4], run.Points[len(run.Points)-1]
			g.must(last.Accuracy >= 0.6, "rank slicer accuracy %.2f after %d rounds, want >= 0.6", last.Accuracy, last.Round)
			g.must(last.Undecided == 0, "%d nodes still undecided after %d rounds", last.Undecided, last.Round)
			g.must(r5.Accuracy <= last.Accuracy, "accuracy degraded: r5=%.2f r%d=%.2f", r5.Accuracy, last.Round, last.Accuracy)
		}
	}
	return g
}

// ---------------------------------------------------------------------------
// E4 — correlated slice failure: adaptive slicing re-balances, the
// static "coin toss" baseline cannot (§IV-A)

// CorrelatedResult compares slice repopulation after a targeted
// failure.
type CorrelatedResult struct {
	Slicer        core.SlicerKind
	TargetSlice   int32
	Killed        int
	BeforeMembers int
	// AfterMembers tracks the victim slice's population at each
	// measured round after the failure.
	AfterMembers []int
}

// CorrelatedFailure kills frac of one slice's members and watches the
// population recover (or not) over measureRounds.
func CorrelatedFailure(n, k int, frac float64, slicer core.SlicerKind, measureRounds int, seed uint64) CorrelatedResult {
	c := NewCluster(ClusterConfig{
		N:    n,
		Seed: seed,
		Node: core.Config{Slices: k, Slicer: slicer},
	})
	c.Run(40) // converge first

	target := int32(k / 2)
	before := c.SliceSizes()[target]
	killed := churn.KillSliceFraction(c, target, frac, sim.RNG(seed, 0xdead))

	res := CorrelatedResult{
		Slicer:        slicer,
		TargetSlice:   target,
		Killed:        killed,
		BeforeMembers: before,
	}
	for r := 0; r < measureRounds; r++ {
		c.Run(5)
		res.AfterMembers = append(res.AfterMembers, c.SliceSizes()[target])
	}
	return res
}

func runCorrelated(w io.Writer, p Params) Report {
	title(w, "E4: correlated slice failure — adaptive vs coin-toss slicing (§IV-A)")
	n := 500
	if p.Quick {
		n = 200
	}
	rank := CorrelatedFailure(n, 10, 0.8, core.SlicerRank, 8, p.Seed)
	static := CorrelatedFailure(n, 10, 0.8, core.SlicerStatic, 8, p.Seed)
	for _, res := range []CorrelatedResult{rank, static} {
		fmt.Fprintf(w, "slicer=%-6s slice %d: members %d → killed %d → recovery over 40 rounds: %v\n",
			slicerName[res.Slicer], res.TargetSlice, res.BeforeMembers, res.Killed, res.AfterMembers)
	}
	return Report{[]CorrelatedResult{rank, static}, CorrelatedGate(rank, static)}
}

// CorrelatedGate is E4's — §IV-A's claim: the adaptive slicer
// repopulates the gutted slice, the memoryless baseline cannot.
func CorrelatedGate(rank, static CorrelatedResult) []string {
	if rank.Killed == 0 || static.Killed == 0 {
		return []string{fmt.Sprintf("nothing killed: rank=%d static=%d", rank.Killed, static.Killed)}
	}
	var g gate
	rankFinal := rank.AfterMembers[len(rank.AfterMembers)-1]
	staticFinal := static.AfterMembers[len(static.AfterMembers)-1]
	g.must(rankFinal > staticFinal, "rank slicer final members %d not above static %d", rankFinal, staticFinal)
	g.must(rankFinal >= rank.BeforeMembers/2, "rank slicer recovered only %d of %d members", rankFinal, rank.BeforeMembers)
	g.must(staticFinal <= static.BeforeMembers-static.Killed+2, "static slicer gained members (%d) without a mechanism to", staticFinal)
	return g
}

// ---------------------------------------------------------------------------
// E5 — read availability under churn (the dependability headline)

// ChurnPoint is one churn rate's availability measurement.
type ChurnPoint struct {
	ChurnPerRound float64
	OK, Failed    int
	Availability  float64
	Retries       int
}

// AvailabilityUnderChurn preloads records, then runs a read-heavy
// workload while replacement churn runs at each rate. The client is
// what live clients run: the slice directory.
func AvailabilityUnderChurn(n, k int, rates []float64, ops int, seed uint64) []ChurnPoint {
	return availabilityUnderChurn(n, k, rates, ops, seed, client.Opts{}, false)
}

// availabilityUnderChurn is E5 with the reads' per-op options and the
// balancer exposed, so E20 can run the identical schedule from a random
// contact, with and without Flood forced on.
func availabilityUnderChurn(n, k int, rates []float64, ops int, seed uint64, readOpts client.Opts, randomLB bool) []ChurnPoint {
	points := make([]ChurnPoint, 0, len(rates))
	for _, rate := range rates {
		c := NewCluster(ClusterConfig{
			N:    n,
			Seed: seed + uint64(rate*10000),
			Node: core.Config{Slices: k, AntiEntropyEvery: 5},
		})
		var lb client.LoadBalancer // nil: the directory
		if randomLB {
			lb = c.RandomLB()
		}
		cl := c.NewClient(client.Config{}, lb)
		var reads tally
		retries := 0
		readUnderChurn(c, churn.NewInjector(rate, sim.RNG(seed, 0xc0de)), sim.RNG(seed, 0xf00d), ops,
			func(key string) { cl.StartPut(key, 1, []byte("payload"), nil) },
			func(key string) {
				cl.StartGetOpts(key, store.Latest, readOpts, func(r client.Result) {
					retries += r.Retries
					reads.add(r.Err)
				})
			})
		points = append(points, ChurnPoint{rate, reads.ok, reads.failed, reads.availability(), retries})
	}
	return points
}

// churnedCluster is either lab cluster, as readUnderChurn drives it.
type churnedCluster interface {
	churn.Target
	Run(rounds int)
	ResetMetrics()
}

// tally counts the reads a schedule completed.
type tally struct{ ok, failed int }

func (t *tally) add(err error) {
	if err != nil {
		t.failed++
	} else {
		t.ok++
	}
}

func (t tally) availability() float64 { return float64(t.ok) / float64(t.ok+t.failed) }

// readUnderChurn is the schedule E5, E8 and E20 share, over either
// store: warm up, preload 20 records through put, let them settle, then
// ops reads of random records, two a round, while inj replaces nodes
// every round; then a drain long enough that every read completes or
// exhausts its retries.
func readUnderChurn(c churnedCluster, inj *churn.Injector, keys *rand.Rand, ops int, put, get func(key string)) {
	c.Run(30)
	const records = 20
	for i := 0; i < records; i++ {
		put(workload.Key(i))
	}
	c.Run(20)
	c.ResetMetrics()
	for issued := 0; issued < ops; {
		c.Run(1)
		inj.Tick(c)
		for i := 0; i < 2 && issued < ops; i++ {
			get(workload.Key(keys.IntN(records)))
			issued++
		}
	}
	c.Run(80)
}

// writeAvailabilityUnderChurn is the E5 half of -exp churn (the row is
// runChurn, next to E17).
func writeAvailabilityUnderChurn(w io.Writer, p Params) []ChurnPoint {
	title(w, "E5: read availability under churn")
	n, ops := 500, 100
	if p.Quick {
		n, ops = 200, 50
	}
	points := AvailabilityUnderChurn(n, 10, []float64{0, 0.005, 0.01, 0.02, 0.05}, ops, p.Seed)
	fmt.Fprintf(w, "%14s %8s %8s %14s %8s\n", "churn/round", "ok", "failed", "availability", "retries")
	for _, pt := range points {
		fmt.Fprintf(w, "%14.3f %8d %8d %13.1f%% %8d\n",
			pt.ChurnPerRound, pt.OK, pt.Failed, pt.Availability*100, pt.Retries)
	}
	return points
}

// AvailabilityGate is E5's: reads are served without churn, and degrade
// gracefully — still >= 80% with 2% of the nodes replaced every round.
func AvailabilityGate(points []ChurnPoint) []string {
	var g gate
	for _, p := range points {
		g.must(p.ChurnPerRound != 0 || p.Availability >= 0.99, "churn-free availability %.2f, want >= 0.99", p.Availability)
		g.must(p.ChurnPerRound != 0.02 || p.Availability >= 0.8, "availability at 2%%/round churn = %.2f, want >= 0.8", p.Availability)
	}
	return g
}

// ---------------------------------------------------------------------------
// E6 — replication repair via anti-entropy

// RepairPoint tracks one object's replica count over time.
type RepairPoint struct {
	Round    int
	Replicas int
}

// RepairResult reports replica-count recovery after a burst kill.
type RepairResult struct {
	Key            string
	InitialCount   int
	AfterKillCount int
	Timeline       []RepairPoint
}

// ReplicationRepair stores one object, kills half its replicas, and
// watches anti-entropy restore the count.
func ReplicationRepair(n, k int, antiEntropyEvery int, seed uint64) RepairResult {
	c := NewCluster(ClusterConfig{
		N:    n,
		Seed: seed,
		Node: core.Config{Slices: k, AntiEntropyEvery: antiEntropyEvery},
	})
	cl := c.NewClient(client.Config{}, nil)
	c.Run(40)

	const key = "repair-me"
	cl.StartPut(key, 1, []byte("precious"), nil)
	c.Run(15)

	res := RepairResult{Key: key, InitialCount: c.ReplicaCount(key, 1)}

	// Kill half the current holders.
	holders := 0
	for _, id := range c.AliveIDs() {
		node := c.Node(id)
		if _, _, ok, _ := node.Store().Get(key, 1); ok {
			holders++
			if holders%2 == 0 {
				c.Kill(id)
			}
		}
	}
	// Replace the killed population so slice sizes recover.
	for i := 0; i < holders/2; i++ {
		c.Spawn()
	}
	res.AfterKillCount = c.ReplicaCount(key, 1)

	for r := 5; r <= 60; r += 5 {
		c.Run(5)
		res.Timeline = append(res.Timeline, RepairPoint{Round: r, Replicas: c.ReplicaCount(key, 1)})
	}
	return res
}

func runRepair(w io.Writer, p Params) Report {
	title(w, "E6: replication repair via anti-entropy (§VII future work)")
	n := 400
	if p.Quick {
		n = 200
	}
	res := ReplicationRepair(n, 10, 5, p.Seed)
	fmt.Fprintf(w, "object %q: %d replicas → kill half → %d; recovery:\n",
		res.Key, res.InitialCount, res.AfterKillCount)
	for _, pt := range res.Timeline {
		fmt.Fprintf(w, "  +%2d rounds: %d replicas\n", pt.Round, pt.Replicas)
	}
	return Report{res, RepairGate(res)}
}

// RepairGate is E6's: the object was replicated, the kill cost replicas,
// and anti-entropy won some back.
func RepairGate(res RepairResult) []string {
	if res.InitialCount == 0 {
		return []string{"object never replicated"}
	}
	if res.AfterKillCount >= res.InitialCount {
		return []string{fmt.Sprintf("kill did not reduce replicas: %d → %d", res.InitialCount, res.AfterKillCount)}
	}
	if final := res.Timeline[len(res.Timeline)-1].Replicas; final <= res.AfterKillCount {
		return []string{fmt.Sprintf("anti-entropy never repaired: %d → %d", res.AfterKillCount, final)}
	}
	return nil
}

// ---------------------------------------------------------------------------
// E7 — load-balancer ablation (§VII optimization)

// LBResult is one balancer's cost over one mix.
type LBResult struct {
	// Balancer names the row: "paper" (random contact, Flood forced — the
	// paper's baseline), "random" (random contact over the directed
	// relay) or "directory" (what live clients run).
	Balancer string
	// Mix names the workload: "B" (95/5 read/update) or "put".
	Mix string
	// DataMsgsPerOp is data-plane sends across all nodes per operation.
	DataMsgsPerOp float64
	OK, Failed    int
	MeanRetries   float64
	// Spread is Cluster.ContactSpread over the measured phase.
	Spread float64
}

// LoadBalancerAblation runs a read-heavy and a put-only workload over
// identical overlays with each balancer: the paper's baseline, the
// random contact that leaves routing to the nodes' directed hop, and the
// client-side slice directory that removes the hop.
func LoadBalancerAblation(n, k, ops int, seed uint64) []LBResult {
	mixes := []struct {
		name string
		mix  workload.Mix
	}{{"B", workload.MixB}, {"put", workload.Mix{Update: 1}}}
	balancers := []struct {
		name             string
		flood, directory bool
	}{{"paper", true, false}, {"random", false, false}, {"directory", false, true}}
	out := make([]LBResult, 0, len(mixes)*len(balancers))
	for _, m := range mixes {
		for _, b := range balancers {
			c := NewCluster(ClusterConfig{N: n, Seed: seed, Node: core.Config{Slices: k}})
			stats := c.RunWorkload(WorkloadOptions{
				Ops:         ops,
				OpsPerRound: 8,
				Mix:         m.mix,
				Records:     200,
				Preload:     true,
				Directory:   b.directory,
				Flood:       b.flood,
				Seed:        seed,
			})
			out = append(out, LBResult{
				Balancer:      b.name,
				Mix:           m.name,
				DataMsgsPerOp: stats.DataMessages.Mean * float64(c.N()) / float64(ops),
				OK:            stats.OK,
				Failed:        stats.Failed,
				MeanRetries:   float64(stats.Retries) / float64(ops),
				Spread:        c.ContactSpread(),
			})
		}
	}
	return out
}

func runLoadBalancer(w io.Writer, p Params) Report {
	title(w, "E7: load-balancer ablation — paper baseline vs random contact vs slice directory (§VII)")
	n, k, ops := 150, 10, 8000
	if p.Quick {
		n, k, ops = 60, 4, 2400
	}
	rows := LoadBalancerAblation(n, k, ops, p.Seed)
	fmt.Fprintf(w, "N=%d k=%d, %d ops per row\n", n, k, ops)
	fmt.Fprintf(w, "%4s %10s %13s %6s %7s %11s %7s\n", "mix", "balancer", "data msgs/op", "ok", "failed", "retries/op", "spread")
	for _, r := range rows {
		fmt.Fprintf(w, "%4s %10s %13.2f %6d %7d %11.3f %7.2f\n",
			r.Mix, r.Balancer, r.DataMsgsPerOp, r.OK, r.Failed, r.MeanRetries, r.Spread)
	}
	return Report{rows, LoadBalancerGate(rows)}
}

// LoadBalancerGate is E7's: on every mix the directory spends fewer data
// messages per op than the random contact, fails and retries no more
// ops, and keeps a slice's busiest member within twice its fair share.
func LoadBalancerGate(rows []LBResult) []string {
	var g gate
	for _, dir := range rows {
		if dir.Balancer != "directory" {
			continue
		}
		var random LBResult
		for _, r := range rows {
			if r.Mix == dir.Mix && r.Balancer == "random" {
				random = r
			}
		}
		g.must(dir.DataMsgsPerOp < random.DataMsgsPerOp, "mix %s: directory %.2f data msgs/op not below random %.2f", dir.Mix, dir.DataMsgsPerOp, random.DataMsgsPerOp)
		g.must(dir.Failed <= random.Failed, "mix %s: directory failed %d ops, random %d", dir.Mix, dir.Failed, random.Failed)
		g.must(dir.MeanRetries <= random.MeanRetries, "mix %s: directory retried %.3f/op, random %.3f/op", dir.Mix, dir.MeanRetries, random.MeanRetries)
		g.must(dir.Spread <= 2, "mix %s: directory contact spread %.2f > 2 (a member is pinned)", dir.Mix, dir.Spread)
	}
	return g
}

// ---------------------------------------------------------------------------
// E8 — DataFlasks vs the structured DHT baseline under churn

// CompareRow is one churn rate's head-to-head measurement.
type CompareRow struct {
	ChurnPerRound float64
	// Availability of reads.
	FlasksAvail float64
	DHTAvail    float64
	// Mean messages per node over the measured phase (cost of the
	// substrate).
	FlasksMsgs float64
	DHTMsgs    float64
}

// CompareWithDHT preloads both stores, then reads under churn.
func CompareWithDHT(n, k, ops int, rates []float64, seed uint64) []CompareRow {
	rows := make([]CompareRow, 0, len(rates))
	for _, rate := range rates {
		row := CompareRow{ChurnPerRound: rate}

		fc := NewCluster(ClusterConfig{
			N:    n,
			Seed: seed,
			Node: core.Config{Slices: k, AntiEntropyEvery: 5},
		})
		fcl := fc.NewClient(client.Config{}, nil)
		var flasks tally
		readUnderChurn(fc, churn.NewInjector(rate, sim.RNG(seed, 0xaaaa)), sim.RNG(seed, 0xbbbb), ops,
			func(key string) { fcl.StartPut(key, 1, []byte("payload"), nil) },
			func(key string) { fcl.StartGet(key, store.Latest, func(r client.Result) { flasks.add(r.Err) }) })
		row.FlasksAvail = flasks.availability()
		row.FlasksMsgs = metrics.SummarizeValues(fc.MessagesPerNode()).Mean

		dc := NewDHTCluster(n, dht.Config{Replicas: 3}, seed)
		dcl := dc.NewClient(dht.ClientConfig{})
		var baseline tally
		readUnderChurn(dc, churn.NewInjector(rate, sim.RNG(seed, 0xcccc)), sim.RNG(seed, 0xdddd), ops,
			func(key string) { dcl.StartPut(key, 1, []byte("payload"), nil) },
			func(key string) { dcl.StartGet(key, func(r dht.ClientResult) { baseline.add(r.Err) }) })
		row.DHTAvail = baseline.availability()
		row.DHTMsgs = metrics.SummarizeValues(dc.MessagesPerNode()).Mean

		rows = append(rows, row)
	}
	return rows
}

func runDHT(w io.Writer, p Params) Report {
	title(w, "E8: DataFlasks vs structured DHT baseline under churn (§I)")
	n, ops := 300, 100
	if p.Quick {
		n, ops = 150, 50
	}
	rows := CompareWithDHT(n, 10, ops, []float64{0, 0.01, 0.02, 0.05}, p.Seed)
	fmt.Fprintf(w, "%14s %16s %16s %14s %14s\n",
		"churn/round", "flasks avail", "dht avail", "flasks msgs", "dht msgs")
	for _, r := range rows {
		fmt.Fprintf(w, "%14.3f %15.1f%% %15.1f%% %14.1f %14.1f\n",
			r.ChurnPerRound, r.FlasksAvail*100, r.DHTAvail*100, r.FlasksMsgs, r.DHTMsgs)
	}
	return Report{rows, DHTGate(rows)}
}

// DHTGate is E8's: both stores work when calm, and under heavy churn (5%
// of the nodes replaced every round) the epidemic substrate wins — the
// paper's whole thesis.
func DHTGate(rows []CompareRow) []string {
	var g gate
	for _, r := range rows {
		g.must(r.ChurnPerRound != 0 || (r.FlasksAvail >= 0.95 && r.DHTAvail >= 0.9),
			"calm availability: flasks=%.2f (want >= 0.95) dht=%.2f (want >= 0.9)", r.FlasksAvail, r.DHTAvail)
		g.must(r.ChurnPerRound != 0.05 || r.FlasksAvail > r.DHTAvail, "at 5%%/round churn flasks %.2f <= dht %.2f", r.FlasksAvail, r.DHTAvail)
	}
	return g
}

// ---------------------------------------------------------------------------
// E9 — peer-sampling quality

// PSSQuality reports in-degree distribution statistics for the overlay
// after the given number of rounds. A uniform in-degree (Cyclon's
// signature) means every node is equally likely to be sampled; a
// skewed one (Newscast's freshness bias) concentrates load. Zero
// in-degree at a snapshot is not a partition — views churn every round
// — but counts how uneven the instantaneous graph is.
type PSSQuality struct {
	Rounds       int
	InDegree     metrics.Summary
	MaxOutAge    uint32
	ZeroInDegree int
}

// MeasurePSSQuality runs a plain cluster and inspects the overlay graph.
func MeasurePSSQuality(n, rounds int, kind core.PSSKind, seed uint64) PSSQuality {
	c := NewCluster(ClusterConfig{
		N:    n,
		Seed: seed,
		Node: core.Config{Slices: 4, PSS: kind},
	})
	c.Run(rounds)

	indeg := make(map[int]uint64) // index into order → count
	idx := make(map[int64]int, n)
	for i, id := range c.AliveIDs() {
		idx[int64(id)] = i
	}
	var maxAge uint32
	for _, node := range c.Nodes() {
		for _, d := range node.PSSView() {
			if i, ok := idx[int64(d.ID)]; ok {
				indeg[i]++
			}
			if d.Age > maxAge {
				maxAge = d.Age
			}
		}
	}
	vals := make([]uint64, n)
	for i, v := range indeg {
		vals[i] = v
	}
	zero := 0
	for _, v := range vals {
		if v == 0 {
			zero++
		}
	}
	return PSSQuality{
		Rounds:       rounds,
		InDegree:     metrics.SummarizeValues(vals),
		MaxOutAge:    maxAge,
		ZeroInDegree: zero,
	}
}

func runPSS(w io.Writer, p Params) Report {
	title(w, "E9: peer-sampling overlay quality")
	n := 1000
	if p.Quick {
		n = 300
	}
	res := map[string]PSSQuality{
		"cyclon":   MeasurePSSQuality(n, 50, core.PSSCyclon, p.Seed),
		"newscast": MeasurePSSQuality(n, 50, core.PSSNewscast, p.Seed),
	}
	for _, name := range []string{"cyclon", "newscast"} {
		q := res[name]
		fmt.Fprintf(w, "%-8s in-degree: mean=%.1f p50=%d p95=%d p99=%d min=%d max=%d zero-in-degree=%d\n",
			name, q.InDegree.Mean, q.InDegree.P50, q.InDegree.P95, q.InDegree.P99,
			q.InDegree.Min, q.InDegree.Max, q.ZeroInDegree)
	}
	return Report{res, PSSGate(res["cyclon"])}
}

// PSSGate is E9's, of Cyclon (the default overlay): in-degree near the
// view size with modest spread, and next to nobody unsampled.
func PSSGate(q PSSQuality) []string {
	var g gate
	g.must(q.ZeroInDegree <= 2, "cyclon left %d nodes with zero in-degree", q.ZeroInDegree)
	g.must(q.InDegree.Mean >= 10 && q.InDegree.Mean <= 30, "mean in-degree = %.1f, want 10..30", q.InDegree.Mean)
	g.must(q.InDegree.P99 <= 3*uint64(q.InDegree.Mean), "cyclon in-degree skewed: p99=%d mean=%.1f", q.InDegree.P99, q.InDegree.Mean)
	return g
}

// ---------------------------------------------------------------------------
// E10 — fanout sweep vs delivery probability (§II theory check)

// FanoutPoint compares measured flood coverage against the paper's
// e^(-e^(-c)) bound.
type FanoutPoint struct {
	C          float64
	Fanout     int
	MeanCover  float64 // fraction of nodes reached, averaged over trials
	FullFloods int     // floods that reached every node
	Trials     int
	TheoryP    float64 // e^(-e^(-c))
	MeasuredP  float64 // FullFloods / Trials
}

// FanoutSweep floods a converged overlay with varying fanout safety
// terms and measures atomic-delivery rates. Slices are set to N (one
// node per slice) so requests travel the pure global relay path, and
// anti-entropy is disabled so nothing repairs a missed node — coverage
// is "which nodes processed the request", via the dedup caches.
//
// The measured rate sits above the e^(-e^(-c)) bound: the bound models
// one relay generation per node, while the flood's TTL lets late copies
// re-trigger relays. The shape (monotone in c, saturating at 1) is the
// §II claim under test.
func FanoutSweep(n int, cs []float64, trials int, seed uint64) []FanoutPoint {
	points := make([]FanoutPoint, 0, len(cs))
	for _, cTerm := range cs {
		cl := NewCluster(ClusterConfig{
			N:    n,
			Seed: seed,
			Node: core.Config{
				Slices:           n,
				FanoutC:          cTerm,
				AntiEntropyEvery: -1,
				// Mate discovery is pointless with singleton slices.
				DiscoveryMaxQueries: 1,
			},
		})
		cl.Run(30)

		full := 0
		var coverSum float64
		for trial := 0; trial < trials; trial++ {
			id := gossip.MakeRequestID(clientIDBase, uint32(trial+1))
			contact := cl.AliveIDs()[trial%cl.N()]
			// A full flood budget, stamped explicitly: gets normally use
			// the bounded coverage TTL, but here the flood itself is the
			// object of study.
			ttl := gossip.TTL(n, gossip.Fanout(n, cTerm), 2)
			req := &core.GetRequest{
				Routing: core.Routing{ID: id, Origin: clientIDBase, TTL: ttl, Flood: true},
				Key:     workload.Key(trial), Version: 1,
			}
			cl.Inject(contact, req)
			cl.Run(8)

			seen := 0
			for _, node := range cl.Nodes() {
				if node.HasSeen(id) {
					seen++
				}
			}
			coverSum += float64(seen) / float64(cl.N())
			if seen == cl.N() {
				full++
			}
		}
		points = append(points, FanoutPoint{
			C:          cTerm,
			Fanout:     gossip.Fanout(n, cTerm),
			MeanCover:  coverSum / float64(trials),
			FullFloods: full,
			Trials:     trials,
			TheoryP:    gossip.AtomicInfectionProbability(cTerm),
			MeasuredP:  float64(full) / float64(trials),
		})
	}
	return points
}

func runFanout(w io.Writer, p Params) Report {
	title(w, "E10: fanout sweep vs atomic-delivery probability (§II theory)")
	n, trials := 500, 30
	if p.Quick {
		n, trials = 200, 15
	}
	points := FanoutSweep(n, []float64{-2, -1, 0, 1, 2}, trials, p.Seed)
	fmt.Fprintf(w, "%6s %8s %12s %14s %14s\n", "c", "fanout", "mean cover", "measured p", "theory p")
	for _, pt := range points {
		fmt.Fprintf(w, "%6.1f %8d %11.1f%% %14.2f %14.2f\n",
			pt.C, pt.Fanout, pt.MeanCover*100, pt.MeasuredP, pt.TheoryP)
	}
	return Report{points, FanoutGate(points)}
}

// FanoutGate is E10's — the shape §II claims: coverage does not fall
// below the smallest fanout's as c grows (saturated points trade places
// within a node or two, so each is held against the first, not its
// neighbour), and at c=1, the default, a flood reaches >= 95% of nodes.
func FanoutGate(points []FanoutPoint) []string {
	var g gate
	for _, pt := range points {
		g.must(pt.MeanCover >= points[0].MeanCover, "coverage not monotone in c: %.3f at c=%.0f, %.3f at c=%.0f", points[0].MeanCover, points[0].C, pt.MeanCover, pt.C)
		g.must(pt.C != 1 || pt.MeanCover >= 0.95, "coverage at c=1 only %.3f, want >= 0.95", pt.MeanCover)
	}
	return g
}
