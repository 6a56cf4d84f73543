package lab

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run's tables")

// quickRun is one experiment's flaskbench -quick -seed 42 run: the
// result the test that owns the scale asserts on, and the table
// TestGoldenTables pins. Memoized, so the two share one run.
type quickRun[T any] struct {
	res   T
	table string
}

func memoQuick[T any](write func(w io.Writer, seed uint64, quick bool) T) func() quickRun[T] {
	return sync.OnceValue(func() quickRun[T] {
		var buf bytes.Buffer
		res := write(&buf, 42, true)
		return quickRun[T]{res, buf.String()}
	})
}

var (
	quickFig3 = memoQuick(func(w io.Writer, seed uint64, quick bool) FigureResult {
		return WriteFigure3(w, nil, seed, quick)
	})
	quickFig4 = memoQuick(func(w io.Writer, seed uint64, quick bool) FigureResult {
		return WriteFigure4(w, nil, seed, quick)
	})
	quickRoute = memoQuick(func(w io.Writer, seed uint64, quick bool) []RoutingRow {
		rows, _, _ := WriteRoutingAblation(w, seed, quick)
		return rows
	})
	quickLB       = memoQuick(WriteLoadBalancerAblation)
	quickChurnE5  = memoQuick(WriteAvailabilityUnderChurn)
	quickChurnE17 = memoQuick(func(w io.Writer, seed uint64, quick bool) [3]ChurnConvergenceResult {
		full, bloom, ranged, _, _ := WriteChurnConvergence(w, seed, quick)
		return [3]ChurnConvergenceResult{full, bloom, ranged}
	})
	quickPipeline = memoQuick(WritePipelineComparison)
)

// TestGoldenTables holds what flaskbench -exp <name> -quick -seed 42
// prints (its "done in" lines aside) against testdata/<name>.golden: a
// change that is meant to leave the protocol's behaviour alone leaves
// these files alone. Regenerate with go test -run Golden -update (make
// goldens) when a change is meant to move them, and say why.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps in -short mode")
	}
	for _, g := range []struct {
		name  string
		table func() string
	}{
		{"fig3", func() string { return quickFig3().table }},
		{"fig4", func() string { return quickFig4().table }},
		{"route", func() string { return quickRoute().table }},
		{"lb", func() string { return quickLB().table }},
		{"churn_e5", func() string { return quickChurnE5().table }},
		{"churn_e17", func() string { return quickChurnE17().table }},
		{"pipeline", func() string { return quickPipeline().table }},
	} {
		t.Run(g.name, func(t *testing.T) {
			got, path := g.table(), filepath.Join("testdata", g.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (generate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s moved.\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}
