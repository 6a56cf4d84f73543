// Command bench is the DataFlasks real-process benchmark. It builds
// cmd/flasksd, spawns 4 flasksd processes on loopback TCP with the log
// engine fsyncing, drives them from this one process through the public
// client (or node 1's RESP gateway), checks every reply, and prints
// each metric by name with its unit.
//
// Run it from the repository root or from this directory:
//
//	go run -C bench .                  # the suite: every workload once
//	go run -C bench . -runs 3 -out f   # three runs each, written to f
//	go run -C bench . -trace 1         # ... each followed by its traced replay
//	go run -C bench . -traced          # in-process budget tables only
//	go run -C bench . -compare a b     # regression check of two outputs
//	go run -C bench . -selfcheck       # the suite twice, then -compare
//
// With -workload it runs one workload once and ends its output with one
// JSON line (the form BENCHMARK.json's command uses; see run.sh).
// README.md in this directory has the metric glossary, the workload
// rationale and the caveats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload  = flag.String("workload", "", "run this one workload and end with one JSON result line")
		seed      = flag.Uint64("seed", 1, "seed of keys, op mix and values")
		seconds   = flag.Int("seconds", defaultSeconds, "length of a run on the reference box: it fixes each workload's timed op count, and twice it is the wall cap")
		trace     = flag.Int("trace", 0, "1 follows each run of put_durable and get_zipf with its traced in-process replay and adds the per-layer time metrics; with -workload the JSON line then carries the metrics the driver does not gate instead of the gated ones")
		runs      = flag.Int("runs", 1, "suite: runs per workload")
		out       = flag.String("out", "", "suite: output file (default out/<time>.json in this directory)")
		tracedRun = flag.Bool("traced", false, "replay put_durable and get_zipf on the traced in-process cluster and print their budget tables")
		compare   = flag.Bool("compare", false, "compare two suite outputs: -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice on this build and compare the two")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Children die with the benchmark however it ends: normal return,
	// panic (the deferred cleanup runs while it unwinds) or a signal.
	defer e.cleanup()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *workload != "":
		return e.single(ctx, *workload, *seed, *seconds, *trace == 1)
	case *tracedRun:
		return e.tracedOnly(ctx, *seed)
	case *selfcheck:
		return e.selfcheck(ctx, *seed, *seconds, *runs, *trace == 1)
	default:
		path := *out
		if path == "" {
			path = filepath.Join(e.outDir, time.Now().UTC().Format("20060102-150405")+".json")
		}
		if _, err := e.suite(ctx, *seed, *seconds, *runs, *trace == 1, path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds: the length the timed
// op counts are sized for (30 gives the counts ISSUE 11 names; the
// acceptance driver's time cap leaves room for 12).
const defaultSeconds = 12

// defaultSetups is how many times a run sets a cluster up; setup_s is
// their median.
const defaultSetups = 3

// env is where one invocation works: the directories it may write, the
// daemon binary and the children it has started.
type env struct {
	repoRoot string
	outDir   string // out/ in this package's directory: result and trace files
	runDir   string // a fresh directory for data dirs and node logs
	flasksd  string
	buildS   float64
	procs    *procSet
}

// findBenchDir locates this package's directory from the working
// directory: the package itself (go run -C bench .) or the repository
// root (run.sh).
func findBenchDir() (string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{cwd, filepath.Join(cwd, "bench")} {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module dataflasks/bench\n") {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or from bench/")
}

func newEnv() (*env, error) {
	benchDir, err := findBenchDir()
	if err != nil {
		return nil, err
	}
	e := &env{
		repoRoot: filepath.Dir(benchDir),
		outDir:   filepath.Join(benchDir, "out"),
		procs:    newProcSet(),
	}
	// Everything built or run lives under .build/ and out/ in this
	// package's directory, which its .gitignore names.
	buildDir := filepath.Join(benchDir, ".build")
	for _, dir := range []string{e.outDir, filepath.Join(buildDir, "bin")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	e.flasksd = filepath.Join(buildDir, "bin", "flasksd")
	t0 := time.Now()
	build := exec.Command("go", "build", "-o", e.flasksd, "./cmd/flasksd")
	build.Dir = e.repoRoot
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/flasksd: %v\n%s", err, msg)
	}
	e.buildS = time.Since(t0).Seconds()
	fmt.Printf("build_s %.3f s (go build ./cmd/flasksd; not part of setup_s)\n", e.buildS)
	if e.runDir, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// cleanup kills and reaps whatever is still running and removes the
// run's data directories.
func (e *env) cleanup() {
	e.procs.killAll()
	_ = os.RemoveAll(e.runDir) // a leftover directory is harmless and ignored by git
}
