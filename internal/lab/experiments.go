package lab

import (
	"fmt"
	"io"

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
		c.Run(30)

		records := 20
		for i := 0; i < records; i++ {
			cl.StartPut(workload.Key(i), 1, []byte("payload"), nil)
		}
		c.Run(20)

		inj := churn.NewInjector(rate, sim.RNG(seed, 0xc0de))
		var ok, failed, retries int
		done := func(r client.Result) {
			retries += r.Retries
			if r.Err != nil {
				failed++
			} else {
				ok++
			}
		}
		rng := sim.RNG(seed, 0xf00d)
		issued := 0
		for issued < ops {
			c.Run(1)
			inj.Tick(c)
			for i := 0; i < 2 && issued < ops; i++ {
				cl.StartGetOpts(workload.Key(rng.IntN(records)), store.Latest, readOpts, done)
				issued++
			}
		}
		c.Run(80) // drain: every op completes or exhausts retries
		points = append(points, ChurnPoint{
			ChurnPerRound: rate,
			OK:            ok,
			Failed:        failed,
			Availability:  float64(ok) / float64(ok+failed),
			Retries:       retries,
		})
	}
	return points
}

// WriteAvailabilityUnderChurn runs E5 at flaskbench's scale (reduced
// under quick) and writes its table.
func WriteAvailabilityUnderChurn(w io.Writer, seed uint64, quick bool) []ChurnPoint {
	title(w, "E5: read availability under churn")
	n, ops := 500, 100
	if quick {
		n, ops = 200, 50
	}
	points := AvailabilityUnderChurn(n, 10, []float64{0, 0.005, 0.01, 0.02, 0.05}, ops, seed)
	fmt.Fprintf(w, "%14s %8s %8s %14s %8s\n", "churn/round", "ok", "failed", "availability", "retries")
	for _, p := range points {
		fmt.Fprintf(w, "%14.3f %8d %8d %13.1f%% %8d\n",
			p.ChurnPerRound, p.OK, p.Failed, p.Availability*100, p.Retries)
	}
	return points
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

// WriteLoadBalancerAblation runs E7 at flaskbench's scale (reduced under
// quick) and writes its table.
func WriteLoadBalancerAblation(w io.Writer, seed uint64, quick bool) []LBResult {
	title(w, "E7: load-balancer ablation — paper baseline vs random contact vs slice directory (§VII)")
	n, k, ops := 150, 10, 8000
	if quick {
		n, k, ops = 60, 4, 2400
	}
	rows := LoadBalancerAblation(n, k, ops, seed)
	fmt.Fprintf(w, "N=%d k=%d, %d ops per row\n", n, k, ops)
	fmt.Fprintf(w, "%4s %10s %13s %6s %7s %11s %7s\n", "mix", "balancer", "data msgs/op", "ok", "failed", "retries/op", "spread")
	for _, r := range rows {
		fmt.Fprintf(w, "%4s %10s %13.2f %6d %7d %11.3f %7.2f\n",
			r.Mix, r.Balancer, r.DataMsgsPerOp, r.OK, r.Failed, r.MeanRetries, r.Spread)
	}
	return rows
}

// LoadBalancerGate lists what E7 must hold and does not (nothing when
// it passes): on every mix the directory spends fewer data messages per
// op than the random contact, fails and retries no more ops, and keeps
// the busiest member of a slice within twice its fair share.
func LoadBalancerGate(rows []LBResult) []string {
	var broken []string
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
		if dir.DataMsgsPerOp >= random.DataMsgsPerOp {
			broken = append(broken, fmt.Sprintf("mix %s: directory %.2f data msgs/op not below random %.2f", dir.Mix, dir.DataMsgsPerOp, random.DataMsgsPerOp))
		}
		if dir.Failed > random.Failed {
			broken = append(broken, fmt.Sprintf("mix %s: directory failed %d ops, random %d", dir.Mix, dir.Failed, random.Failed))
		}
		if dir.MeanRetries > random.MeanRetries {
			broken = append(broken, fmt.Sprintf("mix %s: directory retried %.3f/op, random %.3f/op", dir.Mix, dir.MeanRetries, random.MeanRetries))
		}
		if dir.Spread > 2 {
			broken = append(broken, fmt.Sprintf("mix %s: directory contact spread %.2f > 2 (a member is pinned)", dir.Mix, dir.Spread))
		}
	}
	return broken
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
	records := 20
	for _, rate := range rates {
		row := CompareRow{ChurnPerRound: rate}

		// --- DataFlasks side
		fc := NewCluster(ClusterConfig{
			N:    n,
			Seed: seed,
			Node: core.Config{Slices: k, AntiEntropyEvery: 5},
		})
		fcl := fc.NewClient(client.Config{}, nil)
		fc.Run(30)
		for i := 0; i < records; i++ {
			fcl.StartPut(workload.Key(i), 1, []byte("payload"), nil)
		}
		fc.Run(20)
		fc.ResetMetrics()
		fInj := churn.NewInjector(rate, sim.RNG(seed, 0xaaaa))
		var fOK, fFail int
		fDone := func(r client.Result) {
			if r.Err != nil {
				fFail++
			} else {
				fOK++
			}
		}
		fRng := sim.RNG(seed, 0xbbbb)
		for issued := 0; issued < ops; {
			fc.Run(1)
			fInj.Tick(fc)
			for i := 0; i < 2 && issued < ops; i++ {
				fcl.StartGet(workload.Key(fRng.IntN(records)), store.Latest, fDone)
				issued++
			}
		}
		fc.Run(80)
		row.FlasksAvail = float64(fOK) / float64(fOK+fFail)
		row.FlasksMsgs = metrics.SummarizeValues(fc.MessagesPerNode()).Mean

		// --- DHT side
		dc := NewDHTCluster(n, dht.Config{Replicas: 3}, seed)
		dcl := dc.NewClient(dht.ClientConfig{})
		dc.Run(30)
		for i := 0; i < records; i++ {
			dcl.StartPut(workload.Key(i), 1, []byte("payload"), nil)
		}
		dc.Run(20)
		dc.ResetMetrics()
		dInj := churn.NewInjector(rate, sim.RNG(seed, 0xcccc))
		var dOK, dFail int
		dDone := func(r dht.ClientResult) {
			if r.Err != nil {
				dFail++
			} else {
				dOK++
			}
		}
		dRng := sim.RNG(seed, 0xdddd)
		for issued := 0; issued < ops; {
			dc.Run(1)
			dInj.Tick(dc)
			for i := 0; i < 2 && issued < ops; i++ {
				dcl.StartGet(workload.Key(dRng.IntN(records)), dDone)
				issued++
			}
		}
		dc.Run(80)
		row.DHTAvail = float64(dOK) / float64(dOK+dFail)
		row.DHTMsgs = metrics.SummarizeValues(dc.MessagesPerNode()).Mean

		rows = append(rows, row)
	}
	return rows
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
