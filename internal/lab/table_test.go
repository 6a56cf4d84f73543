package lab

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dataflasks/internal/metrics"
)

// TestExperimentTable checks the table against what hangs off it: the
// -exp names, the golden files and the usage string.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	pinned := map[string]bool{}
	var names []string
	for _, e := range Experiments {
		if e.Name == "" || e.Name == "all" || seen[e.Name] {
			t.Errorf("row %q: names must be unique, non-empty and not \"all\"", e.Name)
		}
		seen[e.Name] = true
		names = append(names, e.Name)
		if e.E == "" || e.Gates == "" || e.Run == nil {
			t.Errorf("row %s: E-number, gate description and Run are all required", e.Name)
		}
		for _, g := range e.Goldens {
			if pinned[g] {
				t.Errorf("row %s: golden %s is already another row's", e.Name, g)
			}
			pinned[g] = true
			if _, err := os.Stat(filepath.Join("testdata", g+".golden")); err != nil {
				t.Errorf("row %s: %v", e.Name, err)
			}
		}
		if got := Select(e.Name); len(got) != 1 || got[0].Name != e.Name {
			t.Errorf("Select(%q) = %d rows", e.Name, len(got))
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if g := strings.TrimSuffix(filepath.Base(f), ".golden"); !pinned[g] {
			t.Errorf("%s: no row of Experiments names it", f)
		}
	}

	if Names() != strings.Join(names, ", ") {
		t.Errorf("Names() = %q, want the rows' names in table order", Names())
	}
	all := Select("all")
	if !slices.EqualFunc(all, Experiments, func(a, b Experiment) bool { return a.Name == b.Name }) {
		t.Error("-exp all does not run the rows in table order")
	}
	if Select("nope") != nil {
		t.Error("Select of an unknown name returned rows")
	}
}

// TestGatesFire feeds every gate a result that holds and copies of it
// with one field pushed across one threshold, and expects exactly that
// threshold's message: the gates are what CI's exit code rests on, and
// no run at any scale takes these branches while the system works.
func TestGatesFire(t *testing.T) {
	fires := func(name string, broken []string, want string) {
		t.Helper()
		switch {
		case want == "" && len(broken) > 0:
			t.Errorf("%s: a result that holds was reported broken: %q", name, broken)
		case want != "" && (len(broken) != 1 || broken[0] != want):
			t.Errorf("%s:\n got %q\nwant [%q]", name, broken, want)
		}
	}

	fig := func(edit func(rows []FigureRow)) FigureResult {
		rows := []FigureRow{{N: 200, Slices: 5, OK: 50, MsgsPerNode: 700}, {N: 600, Slices: 15, OK: 50, MsgsPerNode: 800}}
		edit(rows)
		return FigureResult{rows}
	}
	fires("fig3", Figure3Gate(fig(func([]FigureRow) {})), "")
	fires("fig3 failures", Figure3Gate(fig(func(r []FigureRow) { r[1].Failed = 6 })), "N=600: 6 failures out of 56 ops")
	fires("fig3 flat", Figure3Gate(fig(func(r []FigureRow) { r[1].MsgsPerNode = 1121 })), "Figure 3 not flat: 700.0 → 1121.0 msgs/node")
	fires("fig4", Figure4Gate(fig(func([]FigureRow) {})), "")
	fires("fig4 growing", Figure4Gate(fig(func(r []FigureRow) { r[1].MsgsPerNode = 700 })), "Figure 4 not growing: 700.0 → 700.0 msgs/node")

	slicing := func(edit func(run *SlicingRun)) []SlicingRun {
		run := SlicingRun{Slicer: "rank"}
		for r := 1; r <= 40; r++ {
			run.Points = append(run.Points, SlicingPoint{Round: r, Accuracy: 0.02 * float64(r)})
		}
		edit(&run)
		return []SlicingRun{run}
	}
	fires("E3", SlicingGate(slicing(func(*SlicingRun) {})), "")
	fires("E3 accuracy", SlicingGate(slicing(func(r *SlicingRun) { r.Points[39].Accuracy = 0.59 })), "rank slicer accuracy 0.59 after 40 rounds, want >= 0.6")
	fires("E3 undecided", SlicingGate(slicing(func(r *SlicingRun) { r.Points[39].Undecided = 1 })), "1 nodes still undecided after 40 rounds")
	fires("E3 degraded", SlicingGate(slicing(func(r *SlicingRun) { r.Points[4].Accuracy = 0.9 })), "accuracy degraded: r5=0.90 r40=0.80")
	fires("E3 short run", SlicingGate(slicing(func(r *SlicingRun) { r.Points = r.Points[:9] })), "slicer rank: 9 rounds measured, the table reads round 10")
	fires("E3 other rows are not judged", SlicingGate(slicing(func(r *SlicingRun) { r.ChurnPerRound, r.Points[39].Accuracy = 0.01, 0.3 })), "")

	correlated := func(edit func(rank, static *CorrelatedResult)) []string {
		rank := CorrelatedResult{Killed: 17, BeforeMembers: 22, AfterMembers: []int{9, 18}}
		static := CorrelatedResult{Killed: 14, BeforeMembers: 18, AfterMembers: []int{4, 4}}
		edit(&rank, &static)
		return CorrelatedGate(rank, static)
	}
	fires("E4", correlated(func(_, _ *CorrelatedResult) {}), "")
	fires("E4 no kill", correlated(func(rank, _ *CorrelatedResult) { rank.Killed = 0 }), "nothing killed: rank=0 static=14")
	fires("E4 rank above static", correlated(func(_, static *CorrelatedResult) { static.BeforeMembers, static.AfterMembers = 40, []int{4, 18} }), "rank slicer final members 18 not above static 18")
	fires("E4 rank recovers", correlated(func(rank, _ *CorrelatedResult) { rank.BeforeMembers = 38 }), "rank slicer recovered only 18 of 38 members")
	fires("E4 static cannot", correlated(func(_, static *CorrelatedResult) { static.AfterMembers = []int{4, 7} }), "static slicer gained members (7) without a mechanism to")

	availability := func(calm, churned float64) []string {
		return AvailabilityGate([]ChurnPoint{{ChurnPerRound: 0, Availability: calm}, {ChurnPerRound: 0.02, Availability: churned}, {ChurnPerRound: 0.05, Availability: 0.5}})
	}
	fires("E5", availability(1, 0.8), "")
	fires("E5 calm", availability(0.98, 0.9), "churn-free availability 0.98, want >= 0.99")
	fires("E5 churned", availability(1, 0.79), "availability at 2%/round churn = 0.79, want >= 0.8")

	repair := func(edit func(*RepairResult)) []string {
		res := RepairResult{InitialCount: 22, AfterKillCount: 11, Timeline: []RepairPoint{{5, 13}, {60, 36}}}
		edit(&res)
		return RepairGate(res)
	}
	fires("E6", repair(func(*RepairResult) {}), "")
	fires("E6 replicated", repair(func(r *RepairResult) { r.InitialCount = 0 }), "object never replicated")
	fires("E6 kill", repair(func(r *RepairResult) { r.AfterKillCount = 22 }), "kill did not reduce replicas: 22 → 22")
	fires("E6 repaired", repair(func(r *RepairResult) { r.Timeline[1].Replicas = 11 }), "anti-entropy never repaired: 11 → 11")

	lb := func(edit func(directory *LBResult)) []string {
		rows := []LBResult{
			{Balancer: "random", Mix: "B", DataMsgsPerOp: 7.17, MeanRetries: 0.01, Spread: 0.5},
			{Balancer: "directory", Mix: "B", DataMsgsPerOp: 6.37, MeanRetries: 0.005, Spread: 1.45},
		}
		edit(&rows[1])
		return LoadBalancerGate(rows)
	}
	fires("E7", lb(func(*LBResult) {}), "")
	fires("E7 cheaper", lb(func(d *LBResult) { d.DataMsgsPerOp = 7.17 }), "mix B: directory 7.17 data msgs/op not below random 7.17")
	fires("E7 failed", lb(func(d *LBResult) { d.Failed = 1 }), "mix B: directory failed 1 ops, random 0")
	fires("E7 retries", lb(func(d *LBResult) { d.MeanRetries = 0.02 }), "mix B: directory retried 0.020/op, random 0.010/op")
	fires("E7 spread", lb(func(d *LBResult) { d.Spread = 2.01 }), "mix B: directory contact spread 2.01 > 2 (a member is pinned)")

	dht := func(edit func(calm, stormy *CompareRow)) []string {
		rows := []CompareRow{{ChurnPerRound: 0, FlasksAvail: 1, DHTAvail: 1}, {ChurnPerRound: 0.05, FlasksAvail: 0.66, DHTAvail: 0.34}}
		edit(&rows[0], &rows[1])
		return DHTGate(rows)
	}
	fires("E8", dht(func(_, _ *CompareRow) {}), "")
	fires("E8 calm flasks", dht(func(calm, _ *CompareRow) { calm.FlasksAvail = 0.94 }), "calm availability: flasks=0.94 (want >= 0.95) dht=1.00 (want >= 0.9)")
	fires("E8 calm dht", dht(func(calm, _ *CompareRow) { calm.DHTAvail = 0.89 }), "calm availability: flasks=1.00 (want >= 0.95) dht=0.89 (want >= 0.9)")
	fires("E8 stormy", dht(func(_, stormy *CompareRow) { stormy.FlasksAvail = 0.34 }), "at 5%/round churn flasks 0.34 <= dht 0.34")

	pss := func(edit func(*PSSQuality)) []string {
		q := PSSQuality{InDegree: metrics.Summary{Mean: 20, P99: 27}}
		edit(&q)
		return PSSGate(q)
	}
	fires("E9", pss(func(*PSSQuality) {}), "")
	fires("E9 orphans", pss(func(q *PSSQuality) { q.ZeroInDegree = 3 }), "cyclon left 3 nodes with zero in-degree")
	fires("E9 mean high", pss(func(q *PSSQuality) { q.InDegree.Mean = 31 }), "mean in-degree = 31.0, want 10..30")
	fires("E9 mean low", pss(func(q *PSSQuality) { q.InDegree.Mean = 9 }), "mean in-degree = 9.0, want 10..30")
	fires("E9 skew", pss(func(q *PSSQuality) { q.InDegree.P99 = 61 }), "cyclon in-degree skewed: p99=61 mean=20.0")

	fanout := func(lowest, atOne float64) []string {
		return FanoutGate([]FanoutPoint{{C: -2, MeanCover: lowest}, {C: 0, MeanCover: 1}, {C: 1, MeanCover: atOne}})
	}
	fires("E10", fanout(0.965, 0.999), "")
	fires("E10 monotone", fanout(0.965, 0.96), "coverage not monotone in c: 0.965 at c=-2, 0.960 at c=1")
	fires("E10 coverage", fanout(0.9, 0.94), "coverage at c=1 only 0.940, want >= 0.95")

	reconfig := func(replicas int, accuracy float64) []string {
		return ReconfigGate(ReconfigResult{OldSlices: 10, NewSlices: 5, BeforeReps: 26, Timeline: []ReconfigPoint{{50, replicas, accuracy}}})
	}
	fires("E11", reconfig(39, 0.6), "")
	fires("E11 replicas", reconfig(38, 0.93), "replicas 26 → 38 after k 10→5, want >= 1.5x")
	fires("E11 accuracy", reconfig(50, 0.59), "population never re-sorted: accuracy 0.59, want >= 0.6")

	putflood := func(edit func(bounded *PutFloodRow)) []string {
		rows := []PutFloodRow{{DataPerNode: 161.8, RepairedReps: 34}, {Bounded: true, DataPerNode: 55.6, RepairedReps: 33}}
		edit(&rows[1])
		return PutFloodGate(rows)
	}
	fires("E12", putflood(func(*PutFloodRow) {}), "")
	fires("E12 cheaper", putflood(func(b *PutFloodRow) { b.DataPerNode = 161.8 }), "bounded flood not cheaper: 161.8 vs 161.8 data sends per node")
	fires("E12 repaired", putflood(func(b *PutFloodRow) { b.RepairedReps = 16 }), "bounded flood under-replicated even after repair: 16 vs 34")

	fires("E13", StoreGate([]StoreRow{{Engine: "memory"}, {Engine: "log", Fsync: true}}), "")
	fires("E13 failed row", StoreGate([]StoreRow{{Engine: "memory"}, {Engine: "log", Fsync: true, Err: "recovered 399 of 400 objects"}}), "log engine (fsync=true): recovered 399 of 400 objects")
	fires("E14", CompactGate(CompactResult{}), "")
	fires("E14 failed read", CompactGate(CompactResult{Err: "under compaction: get key00003999: ok=false err=<nil>"}), "under compaction: get key00003999: ok=false err=<nil>")

	pipeline := func(edit func(pipelined, batch *PipelineRow)) []string {
		rows := []PipelineRow{
			{Mode: "blocking", Ops: 100, OK: 100, Elapsed: 135 * time.Millisecond, DataMsgsPerOp: 859, Speedup: 1},
			{Mode: "pipelined", Ops: 100, OK: 100, Elapsed: 3 * time.Millisecond, DataMsgsPerOp: 852, Speedup: 45},
			{Mode: "batch", Ops: 100, OK: 100, Elapsed: 1600 * time.Microsecond, DataMsgsPerOp: 85, Speedup: 84},
		}
		edit(&rows[1], &rows[2])
		return PipelineGate(rows)
	}
	fires("E15", pipeline(func(_, _ *PipelineRow) {}), "")
	fires("E15 failed", pipeline(func(p, _ *PipelineRow) { p.Failed = 1 }), "mode pipelined: 1 of 100 ops failed")
	fires("E15 degenerate", pipeline(func(p, _ *PipelineRow) { p.OK = 0 }), "mode pipelined: degenerate measurement (0 ok in 3ms)")
	fires("E15 speedup", pipeline(func(_, b *PipelineRow) { b.Speedup = 4.9 }), "batch elapsed 1.6ms vs blocking 135ms: speedup 4.9x, want >= 5x")
	fires("E15 batch wire cost", pipeline(func(_, b *PipelineRow) { b.DataMsgsPerOp = 426 }), "batch data msgs/op 426.0 not well below pipelined 852.0")

	resp := func(edit func(pipelined *RESPRow)) []string {
		rows := []RESPRow{
			{Mode: "resp-blocking", Ops: 200, OK: 200, Speedup: 1},
			{Mode: "resp-pipelined", Ops: 200, OK: 200, Speedup: 52},
			{Mode: "native-pipelined", Ops: 200, OK: 198, Failed: 2, Speedup: 66},
		}
		edit(&rows[1])
		return RESPGate(rows)
	}
	fires("E16", resp(func(p *RESPRow) { p.OK, p.Failed = 190, 10 }), "")
	fires("E16 failure rate", resp(func(p *RESPRow) { p.OK, p.Failed = 188, 12 }), "resp-pipelined: 12 of 200 commands failed, want <= 5%")
	fires("E16 speedup", resp(func(p *RESPRow) { p.Speedup = 4.9 }), "pipelined RESP speedup 4.9x over blocking, want >= 5x")
	fires("E16 unanswered", resp(func(p *RESPRow) { p.OK = 199 }), "resp-pipelined: 199 ok + 0 failed != 200 ops")

	churn := func(edit func(*ChurnComparison)) []string {
		mode := func(name string, digest uint64) ChurnConvergenceResult {
			return ChurnConvergenceResult{Mode: name, Converged: true, ConvergedRound: 30, Rounds: 110, MinCoverage: 1, DigestBytes: digest, PushedObjects: 3000}
		}
		c := ChurnComparison{
			FullHeader: mode("full-header", 5_800_000), Ranged: mode("ranged", 180_000),
			DigestBytesRatio: 32.2, SteadyDigestRatio: 45.1,
		}
		edit(&c)
		return ChurnConvergenceGate(c)
	}
	fires("E17", churn(func(*ChurnComparison) {}), "")
	fires("E17 converged", churn(func(c *ChurnComparison) { c.Ranged.Converged, c.Ranged.MinCoverage = false, 0.97 }), "ranged mode never restored full replication (min coverage 0.97 after 110 rounds)")
	fires("E17 pushed", churn(func(c *ChurnComparison) { c.Ranged.PushedObjects = 0 }), "ranged mode pushed no objects — repair did not run")
	fires("E17 accounting", churn(func(c *ChurnComparison) { c.FullHeader.DigestBytes = 0 }), "full-header mode reported no digest bytes — accounting broken")
	fires("E17 window saving", churn(func(c *ChurnComparison) { c.DigestBytesRatio = 4.9 }), "over the window, ranged digests are 4.9x cheaper than full headers, want >= 5x")
	fires("E17 steady saving", churn(func(c *ChurnComparison) { c.SteadyDigestRatio = 4.9 }), "converged, ranged digests are 4.9x cheaper than full headers, want >= 5x")

	bootstrap := func(edit func(segment, object *BootstrapRecoveryResult)) []string {
		segment := BootstrapRecoveryResult{Mode: "segment", JoinRounds: 3, BootstrapSegments: 1, BootstrapBytes: 157696}
		object := BootstrapRecoveryResult{Mode: "object", JoinRounds: 15}
		edit(&segment, &object)
		return BootstrapGate(segment, object)
	}
	fires("E18", bootstrap(func(_, _ *BootstrapRecoveryResult) {}), "")
	fires("E18 never joined", bootstrap(func(_, o *BootstrapRecoveryResult) { o.JoinRounds = -1 }), "join never completed: segment=3 object=-1 rounds")
	fires("E18 segment fell back", bootstrap(func(s, _ *BootstrapRecoveryResult) { s.FellBack = true }), "segment joiner fell back to object repair")
	fires("E18 streamed nothing", bootstrap(func(s, _ *BootstrapRecoveryResult) { s.BootstrapSegments = 0 }), "segment joiner streamed nothing (segments=0 bytes=157696)")
	fires("E18 speedup", bootstrap(func(_, o *BootstrapRecoveryResult) { o.JoinRounds = 14 }), "segment bootstrap 3 rounds vs object repair 14 rounds, want >= 5x")
	fallback := func(edit func(*BootstrapRecoveryResult)) []string {
		res := BootstrapRecoveryResult{Mode: "segment-fallback", JoinRounds: 65, FellBack: true, FallbackObjects: 900}
		edit(&res)
		return BootstrapFallbackGate(res)
	}
	fires("E18 fallback", fallback(func(*BootstrapRecoveryResult) {}), "")
	fires("E18 no fallback", fallback(func(r *BootstrapRecoveryResult) { r.FellBack = false }), "joiner never fell back despite bootstrap-less peers")
	fires("E18 fallback never joined", fallback(func(r *BootstrapRecoveryResult) { r.JoinRounds = -1 }), "joiner never converged via anti-entropy after fallback")
	fires("E18 fallback streamed", fallback(func(r *BootstrapRecoveryResult) { r.BootstrapSegments = 1 }), "streamed 1 segments from peers without the protocol")
	fires("E18 fallback uncounted", fallback(func(r *BootstrapRecoveryResult) { r.FallbackObjects = 0 }), "bootstrap_fallback_objects stayed zero: fallback repair was not counted")

	scaling := func(eightShardRate float64, ops uint64) []ShardScalingResult {
		return []ShardScalingResult{{Shards: 1, Ops: 1000, OpsPerSec: 1000}, {Shards: 8, Ops: ops, OpsPerSec: eightShardRate}}
	}
	fires("E19 scaling", ShardScalingGate(scaling(2000, 2000), true), "")
	fires("E19 scaling ratio", ShardScalingGate(scaling(1900, 1900), true), "8-shard speedup 1.90x < 2x")
	fires("E19 scaling ratio, report-only", ShardScalingGate(scaling(300, 300), false), "")
	fires("E19 scaling served", ShardScalingGate(scaling(3000, 0), true), "shards=8 served 0 requests at 3000 ops/sec")
	fires("E19 burst", ShardBurstGate([]ShardPutBurstResult{{Shards: 1, PutsPerCommit: 1.5, AcksPerFrame: 1.5}, {Shards: 8, PutsPerCommit: 1.1, AcksPerFrame: 1}}), "")
	fires("E19 burst puts per commit", ShardBurstGate([]ShardPutBurstResult{{Shards: 1, PutsPerCommit: 1.4, AcksPerFrame: 1.5}, {Shards: 8, PutsPerCommit: 2.5, AcksPerFrame: 2.5}}), "1.40 puts per commit < 1.5 with the puts in flight on 1 shard")
	fires("E19 burst acks per frame", ShardBurstGate([]ShardPutBurstResult{{Shards: 1, PutsPerCommit: 1.5, AcksPerFrame: 1.4}, {Shards: 8, PutsPerCommit: 2.5, AcksPerFrame: 2.5}}), "1.40 acks per ack frame < 1.5 with the puts in flight on 1 shard")
	fires("E19 burst split across shards", ShardBurstGate([]ShardPutBurstResult{{Shards: 1, PutsPerCommit: 20.22, AcksPerFrame: 20.22}, {Shards: 8, PutsPerCommit: 2.27, AcksPerFrame: 12}}), "2.27 puts per commit on 8 shards < half the 20.22 on 1")
	fires("E19 burst acks split across shards", ShardBurstGate([]ShardPutBurstResult{{Shards: 1, PutsPerCommit: 20, AcksPerFrame: 20}, {Shards: 8, PutsPerCommit: 16, AcksPerFrame: 9.9}}), "9.90 acks per ack frame on 8 shards < half the 20.00 on 1")
	fires("E19 equivalence", ShardEquivalenceGate(ShardEquivalenceResult{Equal: true, Objects: 218}), "")
	fires("E19 diverged", ShardEquivalenceGate(ShardEquivalenceResult{Mismatch: "n3", Waited: 30 * time.Second}), "sharded cluster diverged: first mismatch at node n3 after 30s")
	fires("E19 empty", ShardEquivalenceGate(ShardEquivalenceResult{Equal: true}), "converged on empty stores — workload never landed")

	route := func(edit func(directed, flood *RoutingRow)) []string {
		rows := []RoutingRow{
			{N: 150, K: 5, DataMsgsPerOp: 142, Directed: 52, Flooded: 48},
			{N: 150, K: 5, Flood: true, DataMsgsPerOp: 428, Flooded: 2521},
		}
		edit(&rows[0], &rows[1])
		return RoutingGate(rows)
	}
	fires("E20", route(func(_, _ *RoutingRow) {}), "")
	fires("E20 3x", route(func(d, _ *RoutingRow) { d.DataMsgsPerOp = 147.6 }), "N=150 k=5: directed 147.6 msgs/op not 3x below flood 428.0") // 2.9x
	fires("E20 failed", route(func(d, _ *RoutingRow) { d.Failed = 1 }), "N=150 k=5: directed routing failed 1 ops, flood 0")
	fires("E20 hop counters", route(func(d, _ *RoutingRow) { d.Directed = 0 }), "N=150 k=5: directed hops 0 with routing on, 0 with Flood forced")
	fires("E20 churn", RoutingChurnGate(ChurnPoint{Availability: 0.92}, ChurnPoint{Availability: 0.94}), "")
	fires("E20 churn availability", RoutingChurnGate(ChurnPoint{Availability: 0.91}, ChurnPoint{Availability: 0.94}), "directed routing lost availability under churn: 91.0% vs flood 94.0%")
}

// TestStoreRowsComplete runs the rows that measure the store engines on
// a wall clock (E13; E14 outside -short, it holds two timed windows):
// their gates have no rate to hold, only that every measurement
// completes and reads back what it wrote.
func TestStoreRowsComplete(t *testing.T) {
	holdQuick(t, "store")
	if !testing.Short() {
		holdQuick(t, "compact")
	}
}
