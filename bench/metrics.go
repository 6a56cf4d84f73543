package main

// metricDef is one named metric: BENCHMARK.json, the glossary in the
// README and every printed row are generated from or checked against
// these tables.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// e2eDef is an end-to-end metric with its two bounds.
type e2eDef struct {
	metricDef
	// bound is the share of the old median by which the metric may get
	// worse before -compare calls it a regression (ISSUE 11's bounds).
	bound float64
	// gate is the bound under which the acceptance driver gates the
	// metric (BENCHMARK.json's end_to_end); 0 for the ones it cannot.
	gate float64
}

// endToEnd is what a user of the cluster sees, under the names and
// with the regression bounds ISSUE 11 fixed; -compare judges every row.
//
// The acceptance driver accepts a metric only if ten same-build runs
// spread by less than its bound between their quartiles, every workload
// reports it, and it is never 0; the bound is at most 25 %. Throughput,
// latency and CPU per op fail the first test on this 2-core sandbox: it
// has slow phases that last a minute or two and cost every process
// 30-50 % more CPU per op, so ten runs that straddle a phase change
// spread 25-30 %. Windows of 12 to 24 s, medians over 1 s sub-windows,
// CPU pinning and normalising by a calibration loop all left that
// spread where it was. The class latencies and fail_share fail the
// other two (0 where a workload has no such op, 0 on a healthy run).
// Those rows have gate 0: BENCHMARK.json lists them under per_layer,
// which is the only other place the driver's contract has for them,
// and they are judged by -compare on interleaved runs. The driver
// gates the counted costs, set-up, and node_cpu_per_client_cpu as the
// steady stand-in for cpu_us_per_op.
var endToEnd = []e2eDef{
	// Verified-OK ops over the timed window.
	{metricDef{"ops_per_s", "1/s", "higher"}, 0.10, 0},
	// Client-side latency, issue to completion (put: to the first ack;
	// get: to the first reply); 0 where the workload has no such op.
	{metricDef{"put_p50_ms", "ms", "lower"}, 0.10, 0},
	{metricDef{"get_p50_ms", "ms", "lower"}, 0.10, 0},
	// End-to-end on the two 1-outstanding workloads only; the pipelined
	// ones report client.put_p99_ms / client.get_p99_ms, ungated.
	{metricDef{"put_p99_ms", "ms", "lower"}, 0.20, 0},
	{metricDef{"get_p99_ms", "ms", "lower"}, 0.20, 0},
	// (errors + timeouts + wrong or missing values + ops cut by the
	// wall cap) / ops attempted. It has no bound: -compare fails any rise.
	{metricDef{"fail_share", "ratio", "lower"}, 0, 0},
	// CPU time of the 4 node processes per OK op.
	{metricDef{"cpu_us_per_op", "us", "lower"}, 0.10, 0},
	// The same CPU time over the load generator's own in the window.
	// Both pay the sandbox's mood alike, so the ratio holds within a few
	// percent where cpu_us_per_op swings 40 %; but the generator runs
	// the repo's client, codec and transport, so a change there moves
	// both sides.
	{metricDef{"node_cpu_per_client_cpu", "ratio", "lower"}, 0.25, 0.25},
	// Data-plane messages the nodes sent per OK op: the paper's cost
	// metric (section VI) on live nodes.
	{metricDef{"data_msgs_per_op", "count", "lower"}, 0.03, 0.08},
	// Frame bytes the nodes encoded per OK op, control plane included.
	{metricDef{"wire_bytes_per_op", "B", "lower"}, 0.03, 0.08},
	// First spawn to preload verified; the median of the run's set-ups.
	{metricDef{"setup_s", "s", "lower"}, 0.10, 0.25},
}

// perLayer names one metric per layer and concern. Counts come from
// the nodes' /metrics and /proc around the timed window of the
// real-process run; times (the *_us rows, relay_hops, allocs) from the
// traced in-process replay.
var perLayer = []metricDef{
	{"client.self_us", "us", "lower"},
	{"client.retries_per_op", "count", "lower"},
	{"client.mailbox_dropped", "count", "lower"},
	{"client.put_p99_ms", "ms", "lower"},
	{"client.get_p99_ms", "ms", "lower"},

	{"wire.encode_us", "us", "lower"},
	{"wire.decode_us", "us", "lower"},
	{"wire.frames_per_op", "count", "lower"},
	{"wire.bytes_per_frame", "B", "lower"},

	{"transport.send_us", "us", "lower"},
	{"transport.flight_us", "us", "lower"},
	{"transport.send_errors", "count", "lower"},
	{"transport.write_syscalls_per_op", "count", "lower"},

	{"core.mailbox_wait_us", "us", "lower"},
	{"core.handle_us", "us", "lower"},
	{"core.relay_hops", "count", "lower"},
	{"core.relayed_per_op", "count", "lower"},
	{"core.dup_suppressed_per_op", "count", "lower"},
	{"core.coalesced_per_op", "count", "higher"},
	{"core.mailbox_dropped", "count", "lower"},
	{"core.shard_mailbox_dropped", "count", "lower"},
	{"core.tick_p99_ms", "ms", "lower"},
	{"core.shard_tick_p99_ms", "ms", "lower"},

	{"store.put_us", "us", "lower"},
	{"store.put_nofsync_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.putbatch_us_per_obj", "us", "lower"},
	{"store.segments", "count", "lower"},
	{"store.live_mb", "MB", "lower"},
	{"store.dead_mb", "MB", "lower"},
	{"store.compaction_passes", "count", "lower"},
	// Bytes in the nodes' data directories per acknowledged value byte
	// (preload included): replication times the engine's overhead.
	{"store.disk_bytes_per_user_byte", "B/B", "lower"},
	{"store.disk_write_bytes_per_op", "B", "lower"},

	{"resp.cmd_p50_ms", "ms", "lower"},
	{"resp.cmd_p99_ms", "ms", "lower"},
	{"resp.socket_overhead_us", "us", "lower"},
	{"resp.errors", "count", "lower"},

	{"antientropy.digest_bytes_per_s", "B/s", "lower"},
	{"antientropy.pushed_objects", "count", "lower"},
	{"antientropy.msgs_per_node_per_s", "1/s", "lower"},
	{"pss.msgs_per_node_per_s", "1/s", "lower"},
	{"slicing.msgs_per_node_per_s", "1/s", "lower"},
	{"slicing.flaps", "count", "lower"},

	{"process.rss_mb_max", "MB", "lower"},
	{"process.ctx_switches_per_op", "count", "lower"},
	{"process.allocs_per_op", "count", "lower"},

	{"trace.p50_us", "us", "lower"},
	{"trace.unattributed_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// gated lists BENCHMARK.json's end_to_end: the rows the acceptance
// driver gates, which the JSON line carries with --trace 0.
func gated() []e2eDef {
	var out []e2eDef
	for _, d := range endToEnd {
		if d.gate > 0 {
			out = append(out, d)
		}
	}
	return out
}

// ungated lists BENCHMARK.json's per_layer, which the JSON line carries
// with --trace 1: the end-to-end rows the driver cannot gate, then the
// layers' own.
func ungated() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.gate == 0 {
			out = append(out, d.metricDef)
		}
	}
	return append(out, perLayer...)
}
