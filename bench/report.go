package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dataflasks/bench/traced"
)

// tracedOps is how many ops the in-process cluster replays traced; as
// many again run between them with the decorators off.
const tracedOps = 3000

// maxUnattributedPct is the largest share of the traced median the
// budget's rows may leave unexplained.
const maxUnattributedPct = 15

// --- printing ----------------------------------------------------------------

// printResult lists every metric of one run by name with its unit.
func printResult(r *runResult) {
	fmt.Printf("workload %s seed %d ops %d window %.3f s stream %s\n", r.Workload, r.Seed, r.Ops, r.WindowS, r.StreamHash)
	fmt.Printf("  %-34s %d attempted, %d failed (%d wrong)\n", "ops", r.Attempted, r.Failed, r.Wrong)
	fmt.Printf("  %-34s %d put, %d get (a percentile is printed only with >= %d samples beyond it)\n", "latency samples", r.PutSamples, r.GetSamples, beyond)
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %14.6f %s\n", d.name, r.EndToEnd[d.name], d.unit)
	}
	for _, d := range perLayer {
		if v, ok := r.PerLayer[d.name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

// --- one workload, one JSON line ----------------------------------------------

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs sp once at the op count of a run of the given length,
// with twice that length as the wall cap (ISSUE 11: 60 s for the 30 s
// counts).
func (e *env) measure(ctx context.Context, sp spec, seed uint64, seconds, setups int) (*runResult, error) {
	return e.runWorkload(ctx, sp, seed, sp.opsFor(seconds), 2*time.Duration(seconds)*time.Second, setups)
}

// single runs one workload once and ends with the JSON line the
// acceptance driver reads: the metrics it gates, or with withTrace all
// the others.
func (e *env) single(ctx context.Context, name string, seed uint64, seconds int, withTrace bool) int {
	sp, ok := specByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	// The traced run reports no setup_s, so one set-up is enough.
	setups := defaultSetups
	if withTrace {
		setups = 1
	}
	res, err := e.measure(ctx, sp, seed, seconds, setups)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	var defs []metricDef
	for _, d := range gated() {
		defs = append(defs, d.metricDef)
	}
	if withTrace {
		if sp.blocking() {
			if _, err := e.traceWorkload(ctx, sp, seed, res.PerLayer); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s traced: %v\n", name, err)
				return 1
			}
		}
		defs = ungated()
	}
	printResult(res)
	if res.firstErr != nil {
		fmt.Printf("  first failure: %v\n", res.firstErr)
	}
	if err := e.writeJSON(filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d-trace%t.json", name, seed, withTrace)), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: res.Wrong == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.EndToEnd[d.name]
		if !ok {
			v = res.PerLayer[d.name] // 0 where the workload has no such measurement
		}
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

func (e *env) writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- traced replay --------------------------------------------------------------

// traceWorkload replays sp's first ops on the traced in-process
// cluster, writes the spans to out/trace_<workload>.json, prints the
// budget table and adds the time metrics to layers.
func (e *env) traceWorkload(ctx context.Context, sp spec, seed uint64, layers map[string]float64) (*traced.Budget, error) {
	gen := newOpGen(sp, seed, 0)
	ops := make([]traced.Op, 2*tracedOps) // every second one runs untraced
	for i := range ops {
		o := gen.next()
		ops[i] = traced.Op{Put: o.put, Key: o.key, Version: o.version}
		if o.put {
			ops[i].Value = make([]byte, sp.valueSize)
			fillValue(ops[i].Value, seed, o.key, o.version)
		}
	}
	cfg := traced.Config{
		Nodes: clusterNodes, Slices: clusterSlices, Period: gossipPeriod,
		SegmentBytes: segmentBytes, StableRounds: stableRounds,
		Preload: preloadObjects(sp, seed, 0, sp.records), Ops: ops, Seed: seed,
		OpTimeoutTicks: int(opTimeout / (500 * time.Millisecond)), OpRetries: opRetries,
		Check: func(o traced.Op, value []byte, version uint64) error {
			return checkGet(value, version, true, seed, op{key: o.Key}, sp)
		},
	}
	runCtx, cancel := context.WithTimeout(ctx, setupBudget+time.Minute)
	defer cancel()
	// One scratch directory holds the cluster's stores and the twin's.
	dir, err := os.MkdirTemp(e.runDir, sp.name+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir
	res, err := traced.Run(runCtx, cfg)
	if err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		return nil, fmt.Errorf("%d of %d replayed ops failed: %v", res.Failed, len(res.Ops), res.FirstErr)
	}
	if res.SpansDropped > 0 || res.LinkMismatches > 0 {
		return nil, fmt.Errorf("trace incomplete: %d spans dropped, %d frames unmatched", res.SpansDropped, res.LinkMismatches)
	}
	noFsync, err := traced.PutNoFsyncUs(filepath.Join(dir, "twin"), segmentBytes, ops)
	if err != nil {
		return nil, err
	}

	f, err := os.Create(filepath.Join(e.outDir, "trace_"+sp.name+".json"))
	if err != nil {
		return nil, err
	}
	if err := traced.WriteSpans(f, res.Spans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	b := traced.Analyze(res)
	for name, v := range b.Layers {
		layers[name] = v
	}
	layers["store.put_nofsync_us"] = noFsync
	layers["process.allocs_per_op"] = float64(res.Mallocs) / float64(len(res.Ops))
	layers["trace.p50_us"] = b.P50Us
	layers["trace.unattributed_pct"] = b.UnattributedPct()
	layers["trace.overhead_pct"] = b.OverheadPct()
	b.WriteTable(os.Stdout, sp.name)
	return b, nil
}

// tracedOnly is -traced: the budget tables of the two blocking
// workloads, without any real process.
func (e *env) tracedOnly(ctx context.Context, seed uint64) int {
	status := 0
	for _, sp := range specs {
		if !sp.blocking() {
			continue
		}
		layers := map[string]float64{}
		b, err := e.traceWorkload(ctx, sp, seed, layers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s traced: %v\n", sp.name, err)
			return 1
		}
		for _, d := range perLayer {
			if v, ok := layers[d.name]; ok {
				fmt.Printf("  %-34s %14.4f %s\n", d.name, v, d.unit)
			}
		}
		if b.UnattributedPct() > maxUnattributedPct {
			fmt.Fprintf(os.Stderr, "bench: %s: %.1f %% of the traced median is unattributed (limit %d %%)\n", sp.name, b.UnattributedPct(), maxUnattributedPct)
			status = 1
		}
	}
	return status
}

// --- the suite -------------------------------------------------------------------

// suiteFile is what the suite writes and -compare reads.
type suiteFile struct {
	Meta      suiteMeta               `json:"meta"`
	Workloads map[string][]*runResult `json:"workloads"`
}

type suiteMeta struct {
	Time      string  `json:"time"`
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"nproc"`
	Seconds   int     `json:"seconds"`
	Seed      uint64  `json:"seed"`
	Runs      int     `json:"runs"`
	BuildS    float64 `json:"build_s"`
}

// commit names the checkout's commit when it is a git repository.
func (e *env) commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.repoRoot
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// suite runs every workload runs times (run i with seed+i), the
// blocking ones followed by their traced replay if withTrace, and
// writes the results to path.
func (e *env) suite(ctx context.Context, seed uint64, seconds, runs int, withTrace bool, path string) (*suiteFile, error) {
	sf := &suiteFile{
		Meta: suiteMeta{
			Time: time.Now().UTC().Format(time.RFC3339), Commit: e.commit(), GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), Seconds: seconds, Seed: seed, Runs: runs, BuildS: e.buildS,
		},
		Workloads: map[string][]*runResult{},
	}
	for _, sp := range specs {
		for i := 0; i < runs; i++ {
			res, err := e.measure(ctx, sp, seed+uint64(i), seconds, defaultSetups)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.name, err)
			}
			if withTrace && sp.blocking() {
				if _, err := e.traceWorkload(ctx, sp, seed+uint64(i), res.PerLayer); err != nil {
					return nil, fmt.Errorf("%s traced: %w", sp.name, err)
				}
			}
			printResult(res)
			if res.Wrong > 0 {
				return nil, fmt.Errorf("%s: %d replies failed verification: %v", sp.name, res.Wrong, res.firstErr)
			}
			sf.Workloads[sp.name] = append(sf.Workloads[sp.name], res)
		}
	}
	if err := e.writeJSON(path, sf); err != nil {
		return nil, err
	}
	fmt.Println("wrote", path)
	return sf, nil
}

// selfcheck is the A/A test: the suite twice on one build must agree
// within the benchmark's own bounds.
func (e *env) selfcheck(ctx context.Context, seed uint64, seconds, runs int, withTrace bool) int {
	var files [2]*suiteFile
	for i := range files {
		path := filepath.Join(e.outDir, fmt.Sprintf("selfcheck-%d.json", i+1))
		sf, err := e.suite(ctx, seed, seconds, runs, withTrace, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		files[i] = sf
	}
	return compareSuites(files[0], files[1])
}

// --- compare -----------------------------------------------------------------------

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf suiteFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sf.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads", path)
	}
	return &sf, nil
}

func compareFiles(oldPath, newPath string) int {
	var suites [2]*suiteFile
	for i, path := range []string{oldPath, newPath} {
		sf, err := readSuite(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		suites[i] = sf
	}
	return compareSuites(suites[0], suites[1])
}

// verdict judges one metric of one workload. worse is the share of the
// old median by which the new median is worse (negative: better).
func verdict(d e2eDef, oldVals, newVals []float64) (status string, worse float64) {
	oldMed, newMed := median(oldVals), median(newVals)
	if d.bound == 0 {
		// fail_share: 0 on a healthy run, and any rise is a regression.
		if newMed > oldMed {
			return "regressed", 0
		}
		return "ok", 0
	}
	if oldMed == 0 {
		return "unresolved", 0
	}
	worse = (newMed - oldMed) / oldMed
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	// A side whose own runs differ by more than the bound cannot show a
	// change of the bound's size either way.
	case spreadShare(oldVals) > d.bound || spreadShare(newVals) > d.bound:
		return "unresolved", worse
	case worse > d.bound:
		return "regressed", worse
	default:
		return "ok", worse
	}
}

// compareSuites prints one row per workload and end-to-end metric the
// workload reports, and returns 1 on any regression or a higher
// fail_share.
func compareSuites(oldSuite, newSuite *suiteFile) int {
	status := 0
	fmt.Printf("%-16s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "verdict")
	for _, sp := range specs {
		oldRuns, newRuns := oldSuite.Workloads[sp.name], newSuite.Workloads[sp.name]
		if len(oldRuns) == 0 || len(newRuns) == 0 {
			fmt.Printf("%-16s missing on one side\n", sp.name)
			status = 1
			continue
		}
		for _, d := range endToEnd {
			column := func(runs []*runResult) []float64 {
				out := make([]float64, len(runs))
				for i, r := range runs {
					out[i] = r.EndToEnd[d.name]
				}
				return out
			}
			oldVals, newVals := column(oldRuns), column(newRuns)
			if d.bound > 0 && median(oldVals) == 0 && median(newVals) == 0 {
				continue // the workload has no such op, or reports this p99 per layer
			}
			v, worse := verdict(d, oldVals, newVals)
			fmt.Printf("%-16s %-26s %14.4f %14.4f %8.1f%% %6.0f%%  %s\n",
				sp.name, d.name, median(oldVals), median(newVals), 100*worse, 100*d.bound, v)
			if v == "regressed" {
				status = 1
			}
		}
	}
	return status
}
