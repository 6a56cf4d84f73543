package main

import (
	"math"
	"testing"

	"dataflasks/internal/obs"
)

const scrapeBefore = `# HELP flasks_data_sent_total sent
# TYPE flasks_data_sent_total counter
flasks_data_sent_total 100
# HELP flasks_shard_mailbox_depth depth
# TYPE flasks_shard_mailbox_depth gauge
flasks_shard_mailbox_depth{shard="0"} 3
flasks_shard_mailbox_depth{shard="1"} 4
# HELP flasks_resp_command_duration_seconds latency
# TYPE flasks_resp_command_duration_seconds histogram
flasks_resp_command_duration_seconds_bucket{cmd="get",le="0.001"} 10
flasks_resp_command_duration_seconds_bucket{cmd="get",le="0.002"} 10
flasks_resp_command_duration_seconds_bucket{cmd="get",le="+Inf"} 10
flasks_resp_command_duration_seconds_sum{cmd="get"} 0.005
flasks_resp_command_duration_seconds_count{cmd="get"} 10
`

const scrapeAfter = `# HELP flasks_data_sent_total sent
# TYPE flasks_data_sent_total counter
flasks_data_sent_total 750
# HELP flasks_resp_command_duration_seconds latency
# TYPE flasks_resp_command_duration_seconds histogram
flasks_resp_command_duration_seconds_bucket{cmd="get",le="0.001"} 60
flasks_resp_command_duration_seconds_bucket{cmd="get",le="0.002"} 110
flasks_resp_command_duration_seconds_bucket{cmd="get",le="+Inf"} 110
flasks_resp_command_duration_seconds_sum{cmd="get"} 0.15
flasks_resp_command_duration_seconds_count{cmd="get"} 110
flasks_resp_command_duration_seconds_bucket{cmd="ping",le="0.001"} 1000
flasks_resp_command_duration_seconds_bucket{cmd="ping",le="0.002"} 1000
flasks_resp_command_duration_seconds_bucket{cmd="ping",le="+Inf"} 1000
flasks_resp_command_duration_seconds_sum{cmd="ping"} 0.1
flasks_resp_command_duration_seconds_count{cmd="ping"} 1000
`

func parse(t *testing.T, doc string) families {
	t.Helper()
	fams, err := obs.ParseExposition([]byte(doc))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	return fams
}

func TestMetricsDelta(t *testing.T) {
	before := snapshot{fams: []families{parse(t, scrapeBefore), parse(t, scrapeBefore)}}
	after := snapshot{fams: []families{parse(t, scrapeAfter), parse(t, scrapeBefore)}}
	if got := after.sum("flasks_data_sent_total") - before.sum("flasks_data_sent_total"); got != 650 {
		t.Errorf("counter delta over two nodes = %v, want 650", got)
	}
	if got := before.fams[0].value("flasks_shard_mailbox_depth"); got != 7 {
		t.Errorf("labeled gauge sum = %v, want 7", got)
	}
	if got := before.sum("flasks_absent_total"); got != 0 {
		t.Errorf("absent family = %v, want 0", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	gets := func(l map[string]string) bool { return l["cmd"] == "get" }
	before := parse(t, scrapeBefore).histogramOf("flasks_resp_command_duration_seconds", gets)
	after := parse(t, scrapeAfter).histogramOf("flasks_resp_command_duration_seconds", gets)
	window := after.sub(before)
	// In the window: 50 observations up to 1 ms, 50 more up to 2 ms.
	if got := window.count[len(window.count)-1]; got != 100 {
		t.Fatalf("window count = %v, want 100", got)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 0.001},  // the 50th falls at the top of the first bucket
		{0.75, 0.0015}, // halfway into the second
		{0.25, 0.0005}, // halfway into the first, which starts at 0
		{1.00, 0.002},
	} {
		if got := window.quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (histogram{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of an empty histogram = %v", got)
	}
	// The filter kept ping's thousand fast commands out.
	all := parse(t, scrapeAfter).histogramOf("flasks_resp_command_duration_seconds", nil)
	if got := all.count[len(all.count)-1]; got != 1110 {
		t.Errorf("unfiltered count = %v, want 1110", got)
	}
	// A family absent before the window (no command had run yet).
	if got := after.sub(histogram{}).quantile(1); got != 0.002 {
		t.Errorf("sub of an empty histogram changed the result: %v", got)
	}
	if got := (histogram{}).add(after).count[0]; got != 60 {
		t.Errorf("add onto an empty histogram = %v, want 60", got)
	}
}

func TestBalanced(t *testing.T) {
	for _, c := range []struct {
		slices []int
		want   bool
	}{
		{[]int{0, 0, 1, 1}, true},
		{[]int{1, 0, 1, 0}, true},
		{[]int{0, 1, 1, 1}, false}, // what /readyz alone lets through
		{[]int{-1, 0, 1, 1}, false},
		{[]int{0, 0, 2, 1}, false},
	} {
		if got := balanced(c.slices); got != c.want {
			t.Errorf("balanced(%v) = %v, want %v", c.slices, got, c.want)
		}
	}
}
