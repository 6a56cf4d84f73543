package metrics

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNodeMetricsCounters(t *testing.T) {
	var m NodeMetrics
	m.Inc(MsgSent)
	m.Inc(MsgSent)
	m.Add(MsgRecv, 5)
	m.Set(StoredObjects, 42)
	if got := m.Get(MsgSent); got != 2 {
		t.Errorf("MsgSent = %d, want 2", got)
	}
	if got := m.Get(MsgRecv); got != 5 {
		t.Errorf("MsgRecv = %d, want 5", got)
	}
	if got := m.Get(StoredObjects); got != 42 {
		t.Errorf("StoredObjects = %d, want 42", got)
	}
	snap := m.Snapshot()
	if snap[int(MsgSent)] != 2 {
		t.Errorf("snapshot MsgSent = %d, want 2", snap[int(MsgSent)])
	}
	m.Reset()
	if m.Get(MsgSent) != 0 || m.Get(StoredObjects) != 0 {
		t.Error("Reset left counters non-zero")
	}
	if snap[int(MsgSent)] != 2 {
		t.Error("Reset mutated a prior snapshot")
	}
}

func TestCounterNames(t *testing.T) {
	seen := make(map[string]bool)
	for c := Counter(0); int(c) < NumCounters; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "counter(") {
			t.Errorf("counter %d has no name", int(c))
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if got := Counter(999).String(); got != "counter(999)" {
		t.Errorf("out-of-range name = %q", got)
	}
}

func TestSummarizeValues(t *testing.T) {
	s := SummarizeValues([]uint64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Total != 15 || s.Mean != 3 {
		t.Errorf("basic stats: %+v", s)
	}
	if s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("order stats: %+v", s)
	}
	if s.Stddev < 1.41 || s.Stddev > 1.42 {
		t.Errorf("stddev = %v, want ~1.414", s.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := SummarizeValues(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if s := Summarize(nil, MsgSent); s.N != 0 {
		t.Errorf("empty node summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []uint64{3, 1, 2}
	SummarizeValues(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i + 1) // 1..100
	}
	s := SummarizeValues(vals)
	if s.P50 != 50 {
		t.Errorf("P50 = %d, want 50", s.P50)
	}
	if s.P95 != 95 {
		t.Errorf("P95 = %d, want 95", s.P95)
	}
	if s.P99 != 99 {
		t.Errorf("P99 = %d, want 99", s.P99)
	}
}

func TestPercentileSingleValue(t *testing.T) {
	s := SummarizeValues([]uint64{7})
	if s.P50 != 7 || s.P95 != 7 || s.P99 != 7 || s.Min != 7 || s.Max != 7 {
		t.Errorf("single-value summary = %+v", s)
	}
}

func TestSummaryPropertyBounds(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]uint64, len(raw))
		for i, v := range raw {
			vals[i] = uint64(v)
		}
		s := SummarizeValues(vals)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 &&
			s.P99 <= s.Max && float64(s.Min) <= s.Mean && s.Mean <= float64(s.Max)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
