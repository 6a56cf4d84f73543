package lab

import (
	"fmt"
	"io"
	"time"

	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/metrics"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/workload"
)

// PipelineRow reports one client-shape measurement of the E15
// experiment.
type PipelineRow struct {
	// Mode is "blocking", "pipelined" or "batch".
	Mode string
	// Ops is the number of objects written; OK/Failed split the
	// completions.
	Ops, OK, Failed int
	// Elapsed is the virtual time from first injection to last
	// completion — the latency a real caller would observe.
	Elapsed time.Duration
	// OpsPerSec is Ops over Elapsed in virtual seconds.
	OpsPerSec float64
	// DataMsgsPerOp is total data-plane sends per object — the wire
	// cost the batch path collapses.
	DataMsgsPerOp float64
	// Speedup is the blocking row's Elapsed over this one's.
	Speedup float64
}

// PipelineComparison is experiment E15: the same put workload driven
// through three client shapes over identical overlays (same seed, same
// warm-up) — one blocking op at a time (the pre-futures API), all ops
// pipelined as futures, and per-slice batches on the PutBatch wire
// path. Wall-clock is virtual, so the comparison is deterministic.
// Every op forces Flood on, so all three shapes pay the paper's
// epidemic global phase and DataMsgsPerOp compares like with like.
func PipelineComparison(n, slices, ops, acks int, seed uint64) []PipelineRow {
	modes := []string{"blocking", "pipelined", "batch"}
	rows := make([]PipelineRow, 0, len(modes))
	for _, mode := range modes {
		rows = append(rows, runPipelineMode(mode, n, slices, ops, acks, seed))
	}
	for i := range rows {
		if rows[i].Elapsed > 0 {
			rows[i].Speedup = float64(rows[0].Elapsed) / float64(rows[i].Elapsed) // modes[0] is blocking
		}
	}
	return rows
}

func runPipeline(w io.Writer, p Params) Report {
	title(w, "E15: client API — blocking vs pipelined futures vs batched puts")
	n, ops := 400, 200
	if p.Quick {
		n, ops = 150, 100
	}
	rows := PipelineComparison(n, 10, ops, 1, p.Seed)
	fmt.Fprintf(w, "%10s %6s %6s %6s %14s %14s %14s %9s\n",
		"mode", "ops", "ok", "fail", "virtual time", "ops/s (virt)", "data msgs/op", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%10s %6d %6d %6d %14s %14.0f %14.1f %8.1fx\n",
			r.Mode, r.Ops, r.OK, r.Failed, r.Elapsed.Round(time.Microsecond),
			r.OpsPerSec, r.DataMsgsPerOp, r.Speedup)
	}
	return Report{rows, PipelineGate(rows)}
}

// PipelineGate is E15's — the async API's headline claim: nothing fails,
// pipelined and batched puts complete the same workload at least 5x
// sooner (virtual time, so exact) than one blocking op at a time at the
// same ack level, and the batch path collapses the per-object wire cost.
func PipelineGate(rows []PipelineRow) []string {
	var g gate
	byMode := map[string]PipelineRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
		g.must(r.Failed == 0, "mode %s: %d of %d ops failed", r.Mode, r.Failed, r.Ops)
		g.must(r.OK > 0 && r.Elapsed > 0, "mode %s: degenerate measurement (%d ok in %v)", r.Mode, r.OK, r.Elapsed)
		g.must(r.Mode == "blocking" || r.Speedup >= 5, "%s elapsed %v vs blocking %v: speedup %.1fx, want >= 5x", r.Mode, r.Elapsed, rows[0].Elapsed, r.Speedup)
	}
	batch, pipelined := byMode["batch"], byMode["pipelined"]
	g.must(batch.DataMsgsPerOp < pipelined.DataMsgsPerOp/2, "batch data msgs/op %.1f not well below pipelined %.1f", batch.DataMsgsPerOp, pipelined.DataMsgsPerOp)
	return g
}

func runPipelineMode(mode string, n, slices, ops, acks int, seed uint64) PipelineRow {
	c := NewCluster(ClusterConfig{
		N:    n,
		Seed: seed,
		Node: core.Config{
			Slices: slices,
			// Replication repair is off so DataMsgsPerOp isolates the
			// request dissemination cost.
			AntiEntropyEvery: -1,
		},
	})
	c.Run(30) // converge slicing and views
	c.ResetMetrics()

	cl := c.NewClient(client.Config{PutAcks: acks, TimeoutTicks: 5, Retries: 5}, c.RandomLB())
	value := make([]byte, 100)
	flood := client.Opts{Flood: true}

	row := PipelineRow{Mode: mode, Ops: ops}
	start := c.Engine.Now()
	var last time.Duration
	completed := 0
	target := ops
	// finish records one completion covering objCount objects (1 for
	// single puts, the group size for batches).
	finish := func(r client.Result, objCount int) {
		completed++
		if r.Err != nil {
			row.Failed += objCount
		} else {
			row.OK += objCount
		}
		if now := c.Engine.Now(); now > last {
			last = now
		}
	}
	done := func(r client.Result) { finish(r, 1) }

	switch mode {
	case "blocking":
		// One op in flight at a time: the next put is issued only from
		// the previous one's completion callback, exactly what a caller
		// of the blocking API experiences.
		var issue func(i int)
		issue = func(i int) {
			cl.StartPutOpts(workload.Key(i), 1, value, flood, func(r client.Result) {
				done(r)
				if i+1 < ops {
					c.Engine.Schedule(0, func() { issue(i + 1) })
				}
			})
		}
		c.Engine.Schedule(0, func() { issue(0) })
	case "pipelined":
		// Hundreds of futures in flight over the one client core.
		c.Engine.Schedule(0, func() {
			for i := 0; i < ops; i++ {
				cl.StartPutOpts(workload.Key(i), 1, value, flood, done)
			}
		})
	case "batch":
		// Group per target slice; each group is one wire message that
		// lands as one store.PutBatch per replica.
		bySlice := make(map[int32][]store.Object, slices)
		for i := 0; i < ops; i++ {
			key := workload.Key(i)
			s := slicing.KeySlice(key, slices)
			bySlice[s] = append(bySlice[s], store.Object{Key: key, Version: 1, Value: value})
		}
		target = len(bySlice)
		c.Engine.Schedule(0, func() {
			// Ascending slice order, not the map's: the order of a run's
			// first events decides every RNG draw after them.
			for s := int32(0); s < int32(slices); s++ {
				group := bySlice[s]
				if len(group) == 0 {
					continue
				}
				cl.StartPutBatch(group, flood, func(r client.Result) {
					finish(r, len(group))
				})
			}
		})
	}

	// Run until every completion fired; the cap is a liveness backstop
	// (5 ticks/attempt × 6 attempts ≈ 30 rounds per op worst case).
	for rounds := 0; completed < target && rounds < 40*ops+100; rounds++ {
		c.Run(1)
	}

	row.Elapsed = last - start
	if row.Elapsed > 0 {
		row.OpsPerSec = float64(ops) / row.Elapsed.Seconds()
	}
	dataSends := uint64(0)
	for _, m := range c.NodeMetrics() {
		dataSends += m.Get(metrics.DataSent)
	}
	row.DataMsgsPerOp = float64(dataSends) / float64(ops)
	return row
}
