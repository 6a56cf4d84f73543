package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
)

func TestStreamHashFollowsSeed(t *testing.T) {
	for _, sp := range specs {
		lanes := sp.workers * sp.window
		a, b := streamHash(sp, 7, lanes, 200), streamHash(sp, 7, lanes, 200)
		if a != b {
			t.Errorf("%s: seed 7 gave %x then %x", sp.name, a, b)
		}
		if c := streamHash(sp, 8, lanes, 200); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %x", sp.name, a)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	val := make([]byte, 128)
	fillValue(val, 42, "rec-1", laneVersion(3, 5))
	v, err := checkValue(val, 42, "rec-1", 128)
	if err != nil || v != laneVersion(3, 5) {
		t.Fatalf("checkValue = %d, %v", v, err)
	}
	val[100] ^= 1
	if _, err := checkValue(val, 42, "rec-1", 128); !errors.Is(err, errWrong) {
		t.Errorf("a flipped bit passed: %v", err)
	}
	val[100] ^= 1
	if _, err := checkValue(val, 42, "rec-2", 128); !errors.Is(err, errWrong) {
		t.Errorf("another key's value passed: %v", err)
	}
	if _, err := checkValue(val[:100], 42, "rec-1", 128); !errors.Is(err, errWrong) {
		t.Errorf("a short value passed: %v", err)
	}
}

func TestLaneVersionsNeverCollide(t *testing.T) {
	sp, _ := specByName("mixed_pipeline")
	seen := map[string]bool{}
	for lane := 0; lane < 4; lane++ {
		g := newOpGen(sp, 1, lane)
		last := map[string]uint64{}
		for i := 0; i < 5000; i++ {
			o := g.next()
			if !o.put {
				continue
			}
			id := fmt.Sprintf("%s/%d", o.key, o.version)
			if seen[id] {
				t.Fatalf("lane %d rewrote %s v%d", lane, o.key, o.version)
			}
			seen[id] = true
			if o.version <= last[o.key] || o.version <= preloadVersion {
				t.Fatalf("lane %d: %s went from v%d to v%d", lane, o.key, last[o.key], o.version)
			}
			last[o.key] = o.version
		}
	}
}

// TestBenchmarkJSON keeps the root BENCHMARK.json, which the acceptance
// driver reads, in step with the tables the program prints from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, the program has %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q, the program's is %q (or their rationale differs)", i, w.Name, specs[i].name)
		}
	}
	gated, ungated := gated(), ungated()
	if len(doc.EndToEnd) != len(gated) || len(doc.PerLayer) != len(ungated) {
		t.Fatalf("%d + %d metrics, the program has %d + %d", len(doc.EndToEnd), len(doc.PerLayer), len(gated), len(ungated))
	}
	for i, m := range doc.EndToEnd {
		if d := gated[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.gate {
			t.Errorf("end_to_end %d is %+v, the program's is %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		if d := ungated[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d is %+v, the program's is %+v", i, m, d)
		}
	}
}
