package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestRealProcessSmoke runs 500 ops of every workload against real
// flasksd processes: set-up, convergence gate, warm-up, window, output
// checks and teardown. Slow, so not under -short.
func TestRealProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds flasksd and spawns 4 processes per workload; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "flasksd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/flasksd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/flasksd: %v\n%s", err, out)
	}
	e := &env{outDir: t.TempDir(), runDir: t.TempDir(), flasksd: bin, procs: newProcSet()}
	defer e.cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	for _, sp := range specs {
		res, err := e.runWorkload(ctx, sp, 1, 500, time.Minute, 1)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if res.Failed > 0 || res.Attempted != 500 {
			t.Errorf("%s: %d attempted, %d failed (%v)", sp.name, res.Attempted, res.Failed, res.firstErr)
		}
		// What the driver gates may never be 0, on any workload.
		for _, d := range gated() {
			if res.EndToEnd[d.name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", sp.name, d.name, res.EndToEnd[d.name])
			}
		}
		if e := res.EndToEnd; e["ops_per_s"] <= 0 || e["cpu_us_per_op"] <= 0 || e["put_p50_ms"]+e["get_p50_ms"] <= 0 {
			t.Errorf("%s: timed metrics missing: %v", sp.name, e)
		}
		if sp.resp && res.PerLayer["resp.cmd_p50_ms"] <= 0 {
			t.Errorf("%s: the gateway's histogram recorded nothing", sp.name)
		}
	}
	if pids, err := strayDaemons(); err != nil || len(pids) > 0 {
		t.Errorf("daemons left behind: %v %v", pids, err)
	}
}
