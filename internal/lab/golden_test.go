package lab

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run's tables")

// quickRun is one row's flaskbench -quick -seed 42 run: the report the
// test that owns the experiment holds to its gate, and the table
// TestGoldenTables pins. Memoized per row, so the two share one run.
type quickRun struct {
	Report
	table string
}

var quickRuns = func() map[string]func() quickRun {
	runs := make(map[string]func() quickRun, len(Experiments))
	for _, e := range Experiments {
		runs[e.Name] = sync.OnceValue(func() quickRun {
			var buf bytes.Buffer
			rep := e.Run(&buf, Params{Seed: 42, Quick: true})
			return quickRun{rep, buf.String()}
		})
	}
	return runs
}()

// quick returns the named row's memoized -quick run.
func quick(name string) quickRun { return quickRuns[name]() }

// hold fails the test with everything a gate found broken.
func hold(t *testing.T, broken []string) {
	t.Helper()
	for _, msg := range broken {
		t.Error(msg)
	}
}

// holdQuick holds the named row's -quick run to the row's gate.
func holdQuick(t *testing.T, name string) {
	t.Helper()
	hold(t, quick(name).Broken)
}

// TestGoldenTables holds what flaskbench -exp <name> -quick -seed 42
// prints (its "done in" lines aside) against testdata/*.golden, for
// every row of Experiments that names goldens: a change that is meant to
// leave the protocol's behaviour alone leaves these files alone.
// Regenerate with go test -run Golden -update (make goldens) when a
// change is meant to move them, and say why.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps in -short mode")
	}
	for _, e := range Experiments {
		if len(e.Goldens) == 0 {
			continue
		}
		// One golden per heading the row writes (-exp churn writes two).
		const heading = "\n=== "
		tables := strings.Split(quick(e.Name).table, heading)[1:]
		if len(tables) != len(e.Goldens) {
			t.Errorf("-exp %s wrote %d tables, the row names %d goldens", e.Name, len(tables), len(e.Goldens))
			continue
		}
		for i, name := range e.Goldens {
			t.Run(name, func(t *testing.T) {
				got, path := heading+tables[i], filepath.Join("testdata", name+".golden")
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
}
