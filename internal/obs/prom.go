// Prometheus text exposition (format version 0.0.4), hand-rolled on
// the standard library: /metrics renders every node counter, the wire
// and bootstrap stats, the RESP gateway's per-command stats, and the
// store/event-loop gauges this plane introduced. The classic text
// format is trivial to emit correctly — HELP then TYPE then samples,
// one family at a time — and carrying a client library for it would
// be the only third-party dependency in the tree.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"dataflasks/internal/metrics"
)

// histogramHelp is the shared tail of every histogram family's HELP
// text: the buckets are LatencyHistogram's power-of-two microsecond
// buckets, so any quantile read off them is an upper bound exact to
// within 2x.
const histogramHelp = "Power-of-two microsecond buckets rendered in seconds; " +
	"quantiles derived from them are upper bounds exact to within 2x."

// expo accumulates one exposition document.
type expo struct {
	w   io.Writer
	err error
}

func (e *expo) printf(format string, args ...interface{}) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// head emits the family's # HELP / # TYPE preamble.
func (e *expo) head(name, typ, help string) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (e *expo) counter(name, help string, v uint64) {
	e.head(name, "counter", help)
	e.printf("%s %d\n", name, v)
}

func (e *expo) gauge(name, help string, v float64) {
	e.head(name, "gauge", help)
	e.printf("%s %s\n", name, formatFloat(v))
}

// histogram emits one labeled series of a histogram family. labels is
// either empty or a "name=\"value\"," prefix for the bucket label
// sets. The caller emits the family head once.
func (e *expo) histogram(name, labels string, h *metrics.LatencyHistogram) {
	bare := strings.TrimSuffix(labels, ",")
	suffix := func(kind string) string {
		if bare == "" {
			return name + kind
		}
		return name + kind + "{" + bare + "}"
	}
	b := h.Buckets()
	cum := uint64(0)
	for i := 0; i < metrics.NumLatencyBuckets-1; i++ {
		cum += b[i]
		le := formatFloat(metrics.BucketBound(i).Seconds())
		e.printf("%s_bucket{%sle=%q} %d\n", name, labels, le, cum)
	}
	// The last bucket absorbs every larger observation: +Inf.
	cum += b[metrics.NumLatencyBuckets-1]
	e.printf("%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	e.printf("%s %s\n", suffix("_sum"), formatFloat(float64(h.SumMicroseconds())/1e6))
	// _count is derived from the same bucket snapshot as +Inf, so the
	// two agree even while observers race the scrape.
	e.printf("%s %d\n", suffix("_count"), cum)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// boolGauge renders a bool as the 0/1 gauge value convention.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// counterHelp is the HELP text for the families derived from
// metrics.Counter; the per-counter semantics live in the metric
// families table of docs/ARCHITECTURE.md.
func counterHelp(base string) string {
	return "DataFlasks node counter " + base +
		" (see the metric families table in docs/ARCHITECTURE.md)."
}

// WriteMetrics renders the full exposition document for src. It is
// the one declaration of what /metrics exposes, and
// TestMetricFamiliesDocumented holds a full scrape against the docs.
// Sources fields may be nil; their families are omitted (except the
// RESP families, whose heads are emitted whenever the registry exists
// so scrapers see the family before the first command arrives).
func WriteMetrics(w io.Writer, src Sources) error {
	e := &expo{w: w}

	if src.Status != nil {
		st := src.Status()
		for c := 0; c < metrics.NumCounters; c++ {
			if metrics.Counter(c) == metrics.StoredObjects || metrics.Counter(c) == metrics.SliceRounds {
				continue
			}
			base := metrics.Counter(c).String()
			e.counter("flasks_"+base+"_total", counterHelp(base), st.Counters[c])
			if metrics.Counter(c) == metrics.DuplicatesSuppressed {
				// A name scrapers read, kept at its place in the family order.
				e.counter("flasks_wire_send_errors_total",
					"Fabric sends that returned an error; the same number as flasks_msg_dropped_total.",
					st.Counters[metrics.MsgDropped])
			}
		}
		// The name bench/ scrapes; the same number again.
		e.counter("flasks_transport_send_errors_total",
			"Fabric sends that returned an error, from any protocol or routing path.",
			st.Counters[metrics.MsgDropped])
		e.gauge("flasks_stored_objects",
			"Objects currently held by the local store.",
			float64(st.Counters[metrics.StoredObjects]))
		e.gauge("flasks_slice",
			"Slice (replication group) this node believes it belongs to; -1 before assignment.",
			float64(st.Slice))
		e.gauge("flasks_slice_rounds",
			"Rounds this node has held its current slice; 0 in the round it was assigned or changed.",
			float64(st.Counters[metrics.SliceRounds]))
		e.gauge("flasks_ready",
			"1 once the slice is assigned and bootstrap finished (what /readyz serves).",
			boolGauge(st.Ready))
		e.gauge("flasks_bootstrap_done",
			"1 once startup bootstrap finished, by segment streaming or fallback.",
			boolGauge(st.BootstrapDone))
		e.gauge("flasks_bootstrap_fell_back",
			"1 when bootstrap gave up on segment streaming and relied on anti-entropy.",
			boolGauge(st.BootstrapFellBack))
	}

	if src.EncodeBytes != nil {
		e.counter("flasks_wire_encode_bytes_total",
			"Frame bytes produced by the wire codec.", src.EncodeBytes.Load())
	}
	if src.UnknownFrames != nil {
		name := "flasks_wire_unknown_frames_total"
		e.head(name, "counter",
			"Frames received of a kind this build's wire table does not know (a newer peer's, or a retired one), by kind; ignored.")
		src.UnknownFrames.Each(func(kind uint16, n uint64) {
			e.printf("%s{kind=\"%d\"} %d\n", name, kind, n)
		})
	}

	if src.MailboxDepth != nil {
		e.gauge("flasks_mailbox_depth",
			"Messages queued in the event-loop mailbox right now.",
			float64(src.MailboxDepth()))
	}
	if src.MailboxCapacity > 0 {
		e.gauge("flasks_mailbox_capacity",
			"Event-loop mailbox capacity; depth at capacity means producers are dropping.",
			float64(src.MailboxCapacity))
	}
	if src.MailboxDropped != nil {
		e.counter("flasks_mailbox_dropped_total",
			"Messages dropped by transport producers because the mailbox was full.",
			src.MailboxDropped())
	}

	if src.TickDur != nil {
		name := "flasks_tick_duration_seconds"
		e.head(name, "histogram",
			"Event-loop round (Tick) duration, the put window's commit included. "+histogramHelp)
		e.histogram(name, "", src.TickDur)
	}

	if src.Shards > 0 && src.ShardDepth != nil {
		name := "flasks_shard_mailbox_depth"
		e.head(name, "gauge",
			"Messages queued in each data-plane shard's mailbox right now, by shard.")
		for i := 0; i < src.Shards; i++ {
			e.printf("%s{shard=\"%d\"} %d\n", name, i, src.ShardDepth(i))
		}
	}
	if src.Shards > 0 && src.ShardCapacity > 0 {
		e.gauge("flasks_shard_mailbox_capacity",
			"Per-shard mailbox capacity; a shard's depth at capacity means the dispatcher is dropping.",
			float64(src.ShardCapacity))
	}
	if src.Shards > 0 && src.ShardDropped != nil {
		e.counter("flasks_shard_mailbox_dropped_total",
			"Data messages dropped because their shard's mailbox was full, summed across shards.",
			src.ShardDropped())
	}

	if src.Store != nil {
		ss := src.Store()
		e.gauge("flasks_store_segments",
			"Log-engine segment files, including the active one.", float64(ss.Segments))
		e.gauge("flasks_store_live_bytes",
			"Bytes of records the store index still points at.", float64(ss.LiveBytes))
		e.gauge("flasks_store_dead_bytes",
			"Bytes awaiting compaction (overwritten, deleted or tombstone records).", float64(ss.DeadBytes))
		e.counter("flasks_store_compaction_passes_total",
			"Compaction passes that found candidate segments and rewrote them.", ss.CompactionPasses)
		e.counter("flasks_store_syncs_total",
			"Group-commit fsyncs: syncs that settled at least one waiting write.", ss.Syncs)
		e.counter("flasks_store_synced_writes_total",
			"Write batches the group-commit fsyncs covered; over flasks_store_syncs_total, the group size.", ss.SyncedWrites)
	}

	if src.RESP != nil {
		names := src.RESP.Names()
		e.head("flasks_resp_commands_total", "counter",
			"RESP gateway commands served, by command.")
		for _, n := range names {
			e.printf("flasks_resp_commands_total{cmd=\"%s\"} %d\n",
				escapeLabel(n), src.RESP.Stat(n).Calls.Load())
		}
		e.head("flasks_resp_command_errors_total", "counter",
			"RESP gateway commands that answered an error, by command.")
		for _, n := range names {
			e.printf("flasks_resp_command_errors_total{cmd=\"%s\"} %d\n",
				escapeLabel(n), src.RESP.Stat(n).Errors.Load())
		}
		e.head("flasks_resp_command_duration_seconds", "histogram",
			"RESP gateway command latency, by command. "+histogramHelp)
		for _, n := range names {
			labels := "cmd=\"" + escapeLabel(n) + "\","
			e.histogram("flasks_resp_command_duration_seconds", labels, &src.RESP.Stat(n).Latency)
		}
	}

	if src.Trace != nil {
		e.counter("flasks_trace_events_total",
			"Events published to the /trace journal since start.", src.Trace.Len())
	}

	return e.err
}
