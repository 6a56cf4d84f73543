package main

import (
	"math"
	"testing"
)

func TestQuantileNeedsSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// p99 of 1000 is the 990th value with exactly 10 beyond it.
	if v, ok := quantile(sorted, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// One sample fewer leaves 9 beyond the 990th: not reportable.
	if _, ok := quantile(sorted[:999], 0.99); ok {
		t.Error("p99 of 999 samples reported with 9 samples beyond it")
	}
	if v, ok := quantile(sorted[:20], 0.50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := quantile(sorted[:19], 0.50); ok {
		t.Error("p50 of 19 samples reported with 9 samples beyond it")
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("a quantile of nothing was reported")
	}
	if got := supported(sorted[:999], 0.99); got != 0 {
		t.Errorf("unsupported quantile printed as %v, want 0", got)
	}
}

func TestSpreadShareMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	vals := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spreadShare(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadShare = %v, want %v", got, want)
	}
	// Three runs: the full range.
	if got, want := spreadShare([]float64{100, 110, 104}), 10.0/104; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadShare of 3 = %v, want %v", got, want)
	}
	if got := spreadShare([]float64{5}); got != 0 {
		t.Errorf("spreadShare of one value = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := e2eDef{metricDef: metricDef{name: "put_p50_ms", better: "lower"}, bound: 0.10}
	higher := e2eDef{metricDef: metricDef{name: "ops_per_s", better: "higher"}, bound: 0.10}
	failShare := e2eDef{metricDef: metricDef{name: "fail_share", better: "lower"}}
	steady := []float64{100, 101, 99}
	cases := []struct {
		d        e2eDef
		old, new []float64
		want     string
	}{
		{lower, steady, []float64{105, 106, 104}, "ok"},
		{lower, steady, []float64{115, 116, 114}, "regressed"},
		{lower, steady, []float64{80, 81, 79}, "ok"},
		{higher, steady, []float64{85, 86, 84}, "regressed"},
		{higher, steady, []float64{120, 121, 119}, "ok"},
		// A side that swings by more than the bound decides nothing.
		{lower, steady, []float64{100, 130, 160}, "unresolved"},
		{lower, []float64{0, 0, 0}, steady, "unresolved"},
		// fail_share has no bound: equal is ok, any rise regresses.
		{failShare, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
		{failShare, []float64{0, 0, 0}, []float64{0, 0.001, 0.001}, "regressed"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.name, c.old, c.new, got, c.want)
		}
	}
}
