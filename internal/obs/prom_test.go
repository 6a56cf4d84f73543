package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dataflasks/internal/metrics"
	"dataflasks/internal/store"
)

// fullSources populates every Sources field so WriteMetrics emits its
// entire family inventory.
func fullSources(tick *metrics.LatencyHistogram, resp *metrics.CommandStats, ring *Ring) Sources {
	var st Status
	for i := range st.Counters {
		st.Counters[i] = uint64(i + 1)
	}
	st.Slice = 3
	st.BootstrapDone = true
	st.BootstrapFellBack = true
	st.Ready = true
	encoded := &metrics.SharedCounter{}
	encoded.Add(1)
	unknown := &metrics.KindCounts{}
	unknown.Inc(35)
	return Sources{
		NodeID:        7,
		Status:        func() Status { return st },
		EncodeBytes:   encoded,
		UnknownFrames: unknown,
		RESP:          resp,
		TickDur:       tick,
		Store: func() store.Stats {
			return store.Stats{Segments: 2, LiveBytes: 100, DeadBytes: 50, CompactionPasses: 1}
		},
		MailboxDepth:    func() int { return 6 },
		MailboxCapacity: 1024,
		MailboxDropped:  func() uint64 { return 7 },
		Shards:          2,
		ShardDepth:      func(i int) int { return i },
		ShardCapacity:   256,
		ShardDropped:    func() uint64 { return 9 },
		ShardTickDur:    func(i int) *metrics.LatencyHistogram { return tick },
		Trace:           ring,
	}
}

// TestExpositionCompleteAndConformant is the conformance test: a fully
// populated scrape must parse under the strict exposition validator,
// and a label value carrying the exposition's escape characters must
// come back as it went in. TestMetricFamiliesDocumented holds the same
// scrape's families against the docs.
func TestExpositionCompleteAndConformant(t *testing.T) {
	tick := &metrics.LatencyHistogram{}
	tick.Observe(3 * time.Microsecond)
	tick.Observe(90 * time.Millisecond)
	resp := metrics.NewCommandStats()
	resp.Stat("get").Observe(time.Millisecond, false)
	resp.Stat("set").Observe(2*time.Millisecond, true)
	const odd = "a\"b\\c"
	resp.Stat(odd).Observe(time.Millisecond, false)
	ring := NewRing(16)
	ring.Add(Event{Kind: TraceShuffle})

	var buf bytes.Buffer
	if err := WriteMetrics(&buf, fullSources(tick, resp, ring)); err != nil {
		t.Fatal(err)
	}
	families, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	// The histogram HELP must state the quantile error bound.
	if f := families["flasks_tick_duration_seconds"]; !strings.Contains(f.Help, "2x") {
		t.Errorf("histogram HELP does not document the 2x quantile error bound: %q", f.Help)
	}
	// Labeled RESP series carry their command.
	found := false
	for _, s := range families["flasks_resp_commands_total"].Samples {
		if s.Labels["cmd"] == "get" && s.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Error("flasks_resp_commands_total{cmd=\"get\"} not exported")
	}
	// Each RESP family carries the escaped command name back intact.
	for _, name := range []string{"flasks_resp_commands_total", "flasks_resp_command_errors_total", "flasks_resp_command_duration_seconds"} {
		found = false
		for _, s := range families[name].Samples {
			found = found || s.Labels["cmd"] == odd
		}
		if !found {
			t.Errorf("%s has no series labelled cmd=%q:\n%s", name, odd, buf.String())
		}
	}
}

// TestExpositionCountersMonotonic scrapes twice across counter
// increments: no counter family may decrease.
func TestExpositionCountersMonotonic(t *testing.T) {
	tick := &metrics.LatencyHistogram{}
	resp := metrics.NewCommandStats()
	ring := NewRing(16)
	src := fullSources(tick, resp, ring)

	scrape := func() map[string]*Family {
		var buf bytes.Buffer
		if err := WriteMetrics(&buf, src); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return fams
	}
	first := scrape()
	tick.Observe(time.Millisecond)
	resp.Stat("get").Observe(time.Millisecond, false)
	ring.Add(Event{Kind: TraceShuffle})
	second := scrape()
	for name, f := range first {
		if f.Type != "counter" {
			continue
		}
		var a, b float64
		for _, s := range f.Samples {
			a += s.Value
		}
		for _, s := range second[name].Samples {
			b += s.Value
		}
		if b < a {
			t.Errorf("counter %s decreased across scrapes: %v -> %v", name, a, b)
		}
	}
}

// TestExpositionHistogramUnderConcurrentObserve pins the histogram
// invariant readers depend on: even while writers observe, every
// scrape's +Inf bucket equals its _count (both derive from one bucket
// snapshot), so the strict validator passes on all of them.
func TestExpositionHistogramUnderConcurrentObserve(t *testing.T) {
	tick := &metrics.LatencyHistogram{}
	resp := metrics.NewCommandStats()
	src := fullSources(tick, resp, NewRing(16))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tick.Observe(time.Duration(seed+i%1000) * time.Microsecond)
				resp.Stat("get").Observe(time.Duration(i%100)*time.Microsecond, false)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := WriteMetrics(&buf, src); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(buf.Bytes()); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d failed validation under concurrent observes: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestExpositionRESPHeadsWithoutTraffic: a registry with no commands
// yet must still declare its families, so scrapers learn them before
// the first command arrives.
func TestExpositionRESPHeadsWithoutTraffic(t *testing.T) {
	var buf bytes.Buffer
	src := Sources{RESP: metrics.NewCommandStats()}
	if err := WriteMetrics(&buf, src); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flasks_resp_commands_total", "flasks_resp_command_errors_total", "flasks_resp_command_duration_seconds"} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %s absent from a zero-traffic scrape", want)
		}
	}
}

// TestExpositionBucketBounds checks the le values against the
// histogram's contract: bound i is 2^i microseconds, rendered in
// seconds, ending at +Inf.
func TestExpositionBucketBounds(t *testing.T) {
	tick := &metrics.LatencyHistogram{}
	tick.Observe(time.Microsecond)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, Sources{TickDur: tick}); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var les []float64
	for _, s := range fams["flasks_tick_duration_seconds"].Samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			les = append(les, mustFloat(t, s.Labels["le"]))
		}
	}
	if len(les) != metrics.NumLatencyBuckets {
		t.Fatalf("%d buckets exported, want %d", len(les), metrics.NumLatencyBuckets)
	}
	if les[0] != metrics.BucketBound(0).Seconds() {
		t.Errorf("first bound %v, want %v", les[0], metrics.BucketBound(0).Seconds())
	}
	if !math.IsInf(les[len(les)-1], 1) {
		t.Error("last bucket is not +Inf")
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad le %q: %v", s, err)
	}
	return v
}
