// Package metrics provides the observability primitives shared by the
// DataFlasks evaluation harness and the live runtime.
//
// Two concurrency regimes coexist deliberately. NodeMetrics is plain
// uint64 counters owned by one node's event loop — protocol code is
// single-threaded per node, so counting costs one increment, and
// harnesses aggregate across nodes after the run (Summarize) or via
// Snapshot. SharedCounter, LatencyHistogram, CommandStat and
// CommandStats are atomic, for paths crossed by many goroutines: the
// transport's producer-side mailbox-drop counting and the RESP
// gateway's per-command call/error/latency accounting.
//
// The Counter constants name everything the node runtime measures —
// per-protocol message counts, served operations, and the anti-entropy
// bandwidth split (digest bytes vs pushed value bytes) the repair
// experiments assert on. Summary/SummarizeValues compute the
// distribution statistics the paper's figures report (mean, min/max,
// percentiles).
package metrics

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter names used by the node runtime. Keeping them as typed constants
// avoids typo'd strings scattered through protocol code.
type Counter int

const (
	// MsgSent counts every protocol message a node handed to the transport.
	MsgSent Counter = iota
	// MsgRecv counts every protocol message delivered to a node.
	MsgRecv
	// MsgDropped counts fabric sends that returned an error (dead peer,
	// full mailbox), from any protocol or routing path. Every node send
	// is counted where it is made: the control plane's accounting
	// sender, a shard's data send.
	MsgDropped
	// PSSSent counts peer-sampling shuffle messages sent.
	PSSSent
	// SliceSent counts slicing protocol messages sent.
	SliceSent
	// DiscoverySent counts slice-mate discovery messages sent.
	DiscoverySent
	// DataSent counts put/get/reply dissemination messages sent.
	DataSent
	// AntiEntropySent counts anti-entropy digest/pull messages sent.
	AntiEntropySent
	// AntiEntropyDigestBytes sums the encoded frame bytes of the repair
	// difference-discovery messages received (Reconcile, Pull) — the
	// cost of finding out WHAT to repair.
	AntiEntropyDigestBytes
	// AntiEntropyPushBytes sums the value bytes shipped in repair
	// pushes — the cost of the repairs themselves.
	AntiEntropyPushBytes
	// AntiEntropyPushedObjects counts objects shipped in repair pushes.
	AntiEntropyPushedObjects
	// AntiEntropyCorruptSkipped counts locally corrupt records that
	// repair serving verified, skipped and did NOT propagate.
	AntiEntropyCorruptSkipped
	// AntiEntropyCleanRounds counts repair messages this node answered
	// in which every fingerprint of the mate equalled its own — for a
	// round's opener, the two stores proved to hold the same headers and
	// nothing was sent back.
	AntiEntropyCleanRounds
	// AntiEntropyDifferingRanges counts the fingerprints — range sums
	// and the sub-range sums below them — found different in the repair
	// messages this node answered: what the exchanges narrowed down on.
	AntiEntropyDifferingRanges
	// AggregateSent counts push-sum aggregation messages sent.
	AggregateSent
	// StoredObjects counts objects currently held by the local store.
	StoredObjects
	// PutsServed counts objects this node stored locally (batch puts
	// count every object).
	PutsServed
	// GetsServed counts get requests this node answered from its store.
	GetsServed
	// DeletesServed counts delete requests this node applied locally.
	DeletesServed
	// CoalescedPuts counts intra-slice relay puts that landed via the
	// event loop's accumulation window as batch appends instead of
	// individual store writes.
	CoalescedPuts
	// PutCommits counts the store writes the put path made: one per
	// commit step (window flushes included) or, when its batch degrades,
	// one per object; one per client batch. PutsServed over PutCommits
	// is objects per group-commit wait.
	PutCommits
	// RequestsRelayed counts requests forwarded during routing.
	RequestsRelayed
	// RequestsDirected counts global-phase hops that went to ONE peer
	// the routing state already names as a member of the key's slice.
	RequestsDirected
	// RequestsFlooded counts global-phase hops that used the epidemic
	// fanout: no target-slice peer known, every hinted send failed, or
	// the request carries the Flood flag.
	RequestsFlooded
	// DuplicatesSuppressed counts requests dropped by the dedup cache.
	DuplicatesSuppressed
	// BootstrapSent counts segment-bootstrap protocol messages sent
	// (manifest probes and replies, fetches, chunks, dones).
	BootstrapSent
	// BootstrapSegments counts whole segments a joiner streamed down and
	// verified end to end against the peer's manifest.
	BootstrapSegments
	// BootstrapBytes sums the verified segment bytes a joiner applied.
	BootstrapBytes
	// BootstrapChunksRejected counts received bootstrap chunks (or
	// completed segments) that failed CRC or manifest verification; each
	// rejection abandons the serving peer and re-fetches elsewhere.
	BootstrapChunksRejected
	// BootstrapFallbackObjects counts objects that arrived via
	// object-wise anti-entropy pushes AFTER the joiner gave up on
	// segment streaming (no peer answered the manifest probe) — the
	// mixed-cluster fallback path doing the work segment streaming
	// could not.
	BootstrapFallbackObjects
	// SharedAnswers counts the acks and get replies that left inside a
	// reply batch (core.Replies) with other answers to the same origin;
	// DataSent counts each batch once.
	SharedAnswers
	// InlineGets counts client gets a shard served on the fabric
	// goroutine that read them, found idle, instead of queueing them for
	// its own goroutine.
	InlineGets
	// SliceChanges counts changes of the node's assigned slice after its
	// first assignment.
	SliceChanges
	// SliceRounds is a gauge: the rounds the node has held its current
	// slice, 0 in the round it was assigned or changed.
	SliceRounds

	numCounters
)

var counterNames = [...]string{
	MsgSent:                    "msg_sent",
	MsgRecv:                    "msg_recv",
	MsgDropped:                 "msg_dropped",
	PSSSent:                    "pss_sent",
	SliceSent:                  "slice_sent",
	DiscoverySent:              "discovery_sent",
	DataSent:                   "data_sent",
	AntiEntropySent:            "antientropy_sent",
	AntiEntropyDigestBytes:     "antientropy_digest_bytes",
	AntiEntropyPushBytes:       "antientropy_push_bytes",
	AntiEntropyPushedObjects:   "antientropy_pushed_objects",
	AntiEntropyCorruptSkipped:  "antientropy_corrupt_skipped",
	AntiEntropyCleanRounds:     "antientropy_clean_rounds",
	AntiEntropyDifferingRanges: "antientropy_differing_ranges",
	AggregateSent:              "aggregate_sent",
	StoredObjects:              "stored_objects",
	PutsServed:                 "puts_served",
	GetsServed:                 "gets_served",
	DeletesServed:              "deletes_served",
	CoalescedPuts:              "coalesced_puts",
	PutCommits:                 "put_commits",
	RequestsRelayed:            "requests_relayed",
	RequestsDirected:           "requests_directed",
	RequestsFlooded:            "requests_flooded",
	DuplicatesSuppressed:       "duplicates_suppressed",
	BootstrapSent:              "bootstrap_sent",
	BootstrapSegments:          "bootstrap_segments",
	BootstrapBytes:             "bootstrap_bytes",
	BootstrapChunksRejected:    "bootstrap_chunks_rejected",
	BootstrapFallbackObjects:   "bootstrap_fallback_objects",
	SharedAnswers:              "shared_answers",
	InlineGets:                 "inline_gets",
	SliceChanges:               "slice_changes",
	SliceRounds:                "slice_rounds",
}

// String returns the snake_case name of the counter.
func (c Counter) String() string {
	if c < 0 || int(c) >= len(counterNames) {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// NumCounters is the number of defined counters.
const NumCounters = int(numCounters)

// NodeMetrics holds one node's counters. The zero value is ready to use.
// It is not safe for concurrent use; each node mutates only its own
// metrics from its own event loop, and aggregation happens after the
// run (simulation) or via Snapshot (live runtime).
type NodeMetrics struct {
	counts [numCounters]uint64
}

// Inc adds one to counter c.
func (m *NodeMetrics) Inc(c Counter) { m.counts[c]++ }

// Add adds delta to counter c.
func (m *NodeMetrics) Add(c Counter, delta uint64) { m.counts[c] += delta }

// Set overwrites counter c (used for gauges such as StoredObjects).
func (m *NodeMetrics) Set(c Counter, v uint64) { m.counts[c] = v }

// Get returns the current value of counter c.
func (m *NodeMetrics) Get(c Counter) uint64 { return m.counts[c] }

// Snapshot copies the current counter values.
func (m *NodeMetrics) Snapshot() [NumCounters]uint64 {
	var out [NumCounters]uint64
	copy(out[:], m.counts[:])
	return out
}

// Reset zeroes all counters.
func (m *NodeMetrics) Reset() {
	for i := range m.counts {
		m.counts[i] = 0
	}
}

// ShardCounters is one data-plane shard's counter array: the same
// Counter index space as NodeMetrics, but atomic — a shard goroutine
// counts concurrently with the control loop and with /metrics scrapes.
// The array is padded on both sides to a cache-line multiple so two
// shards allocated back to back never false-share a line; within a
// shard the counters are hot only on that shard's core, so intra-array
// adjacency is free. The zero value is ready to use.
type ShardCounters struct {
	_      [64]byte
	counts [numCounters]atomic.Uint64
	_      [64]byte
}

// Inc adds one to counter c.
func (m *ShardCounters) Inc(c Counter) { m.counts[c].Add(1) }

// Add adds delta to counter c.
func (m *ShardCounters) Add(c Counter, delta uint64) { m.counts[c].Add(delta) }

// Get returns the current value of counter c.
func (m *ShardCounters) Get(c Counter) uint64 { return m.counts[c].Load() }

// AddTo accumulates this shard's counters into dst (the merge step of
// a whole-node metrics read).
func (m *ShardCounters) AddTo(dst *NodeMetrics) {
	for i := range m.counts {
		dst.counts[i] += m.counts[i].Load()
	}
}

// Reset zeroes all counters. Concurrent Inc/Add calls can survive a
// reset; harnesses reset only between quiesced phases.
func (m *ShardCounters) Reset() {
	for i := range m.counts {
		m.counts[i].Store(0)
	}
}

// SharedCounter is an atomic counter for paths crossed by multiple
// goroutines — unlike NodeMetrics, which is owned by one event loop.
// The canonical use is mailbox overflow: transport goroutines drop
// messages for a mailbox the event loop is too slow to drain, and the
// drop must be counted from the producer side. The zero value is ready
// to use.
type SharedCounter struct {
	v atomic.Uint64
}

// Inc adds one.
func (s *SharedCounter) Inc() { s.v.Add(1) }

// Add adds delta.
func (s *SharedCounter) Add(delta uint64) { s.v.Add(delta) }

// Load returns the current value.
func (s *SharedCounter) Load() uint64 { return s.v.Load() }

// KindCounts counts events by a 16-bit kind, for paths crossed by many
// goroutines (every read loop of a TCP fabric) and kinds that are rare:
// one mutex, one map. The zero value is ready to use.
type KindCounts struct {
	mu sync.Mutex
	n  map[uint16]uint64
}

// Inc adds one to kind's count.
func (k *KindCounts) Inc(kind uint16) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.n == nil {
		k.n = make(map[uint16]uint64)
	}
	k.n[kind]++
}

// Each calls fn with every kind counted so far and its count, in
// ascending kind order.
func (k *KindCounts) Each(fn func(kind uint16, n uint64)) {
	k.mu.Lock()
	counts := maps.Clone(k.n)
	k.mu.Unlock()
	kinds := make([]uint16, 0, len(counts))
	for kind := range counts {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	for _, kind := range kinds {
		fn(kind, counts[kind])
	}
}

// latencyBuckets is the bucket count of LatencyHistogram: bucket 0 is
// sub-microsecond, bucket i ≥ 1 covers [2^(i-1), 2^i) microseconds, so
// 40 buckets span sub-µs to ~6 days — every latency a gateway will
// ever observe.
const latencyBuckets = 40

// NumLatencyBuckets exports the LatencyHistogram bucket count for
// renderers (the Prometheus exposition writer) that need to size
// snapshots and compute bucket bounds.
const NumLatencyBuckets = latencyBuckets

// LatencyHistogram is a lock-free histogram of durations in
// power-of-two microsecond buckets, safe for concurrent Observe from
// many goroutines (RESP connections record completions concurrently).
// The zero value is ready to use. Quantiles are upper bounds of the
// bucket the quantile falls in, so they are exact to within 2×.
type LatencyHistogram struct {
	count   atomic.Uint64
	sumUsec atomic.Uint64
	buckets [latencyBuckets]atomic.Uint64
}

// Observe records one duration (negative durations count as zero).
func (h *LatencyHistogram) Observe(d time.Duration) {
	us := uint64(0)
	if d > 0 {
		us = uint64(d / time.Microsecond)
	}
	idx := bits.Len64(us) // 0 for us==0, else floor(log2(us))+1
	if idx >= latencyBuckets {
		idx = latencyBuckets - 1
	}
	h.count.Add(1)
	h.sumUsec.Add(us)
	h.buckets[idx].Add(1)
}

// Count returns how many durations were observed.
func (h *LatencyHistogram) Count() uint64 { return h.count.Load() }

// SumMicroseconds returns the sum of observed durations in
// microseconds (the exposition writer's `_sum`).
func (h *LatencyHistogram) SumMicroseconds() uint64 { return h.sumUsec.Load() }

// Buckets copies the per-bucket counts. The copy is not atomic across
// buckets — concurrent Observe calls can land mid-read — so readers
// must derive totals from the returned array rather than pairing it
// with a separate Count call.
func (h *LatencyHistogram) Buckets() [NumLatencyBuckets]uint64 {
	var out [NumLatencyBuckets]uint64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BucketBound returns bucket i's exclusive upper bound: bucket 0 holds
// sub-microsecond observations (bound 1 µs = 2^0 µs) and bucket i ≥ 1
// covers [2^(i-1), 2^i) µs (bound 2^i µs). The last bucket also
// absorbs every larger observation, so its bound is only nominal —
// exposition renders it as +Inf.
func BucketBound(i int) time.Duration {
	if i < 0 || i >= latencyBuckets {
		panic("metrics: bucket index out of range")
	}
	return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
}

// Mean returns the mean observed duration (0 when empty).
func (h *LatencyHistogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumUsec.Load()/n) * time.Microsecond
}

// Quantile returns an upper bound of the q-quantile (q in [0, 1]) of
// the observed durations, 0 when empty. The snapshot is not atomic
// across buckets; concurrent observers can skew a quantile by at most
// the few samples that land mid-read.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	var counts [latencyBuckets]uint64
	total := uint64(0)
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	seen := uint64(0)
	for i, c := range counts {
		seen += c
		if seen >= rank {
			// Bucket i holds values < 2^i µs, so 2^i µs is an upper
			// bound (bucket 0 is sub-µs: report 1 µs).
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<uint(latencyBuckets-1)) * time.Microsecond
}

// String renders "n=<count> mean=<d> p50=<d> p99=<d>".
func (h *LatencyHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p99=%s",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
}

// CommandStat accumulates one named command's call/error counters and
// latency distribution. All fields are safe for concurrent use.
type CommandStat struct {
	Calls   SharedCounter
	Errors  SharedCounter
	Latency LatencyHistogram
}

// Observe records one completed call.
func (s *CommandStat) Observe(d time.Duration, isErr bool) {
	s.Calls.Inc()
	if isErr {
		s.Errors.Inc()
	}
	s.Latency.Observe(d)
}

// CommandStats is a registry of per-command statistics keyed by
// command name (the RESP gateway's per-command counters + latency
// histograms). Safe for concurrent use; Stat lazily creates entries.
type CommandStats struct {
	mu   sync.RWMutex
	cmds map[string]*CommandStat
}

// NewCommandStats creates an empty registry.
func NewCommandStats() *CommandStats {
	return &CommandStats{cmds: make(map[string]*CommandStat)}
}

// Stat returns the named command's accumulator, creating it on first
// use.
func (s *CommandStats) Stat(name string) *CommandStat {
	s.mu.RLock()
	st, ok := s.cmds[name]
	s.mu.RUnlock()
	if ok {
		return st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok = s.cmds[name]; ok {
		return st
	}
	st = &CommandStat{}
	s.cmds[name] = st
	return st
}

// Names returns the registered command names in sorted order.
func (s *CommandStats) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.cmds))
	for name := range s.cmds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Totals returns the summed call and error counts across all commands.
func (s *CommandStats) Totals() (calls, errs uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, st := range s.cmds {
		calls += st.Calls.Load()
		errs += st.Errors.Load()
	}
	return calls, errs
}

// Quantile returns an upper bound of the q-quantile across every
// command's observations (0 when nothing was observed). It merges the
// per-command bucket counts, so mixed workloads weight by call volume.
func (s *CommandStats) Quantile(q float64) time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var merged LatencyHistogram
	for _, st := range s.cmds {
		merged.count.Add(st.Latency.count.Load())
		for i := range st.Latency.buckets {
			merged.buckets[i].Add(st.Latency.buckets[i].Load())
		}
	}
	return merged.Quantile(q)
}

// Summary aggregates one counter across a population of nodes.
type Summary struct {
	N      int
	Total  uint64
	Mean   float64
	Min    uint64
	Max    uint64
	P50    uint64
	P95    uint64
	P99    uint64
	Stddev float64
}

// Summarize computes distribution statistics for counter c across nodes.
func Summarize(nodes []*NodeMetrics, c Counter) Summary {
	if len(nodes) == 0 {
		return Summary{}
	}
	vals := make([]uint64, 0, len(nodes))
	for _, n := range nodes {
		vals = append(vals, n.Get(c))
	}
	return SummarizeValues(vals)
}

// SummarizeValues computes distribution statistics for raw samples.
func SummarizeValues(vals []uint64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	sorted := make([]uint64, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var total uint64
	for _, v := range sorted {
		total += v
	}
	mean := float64(total) / float64(len(sorted))
	var ss float64
	for _, v := range sorted {
		d := float64(v) - mean
		ss += d * d
	}
	return Summary{
		N:      len(sorted),
		Total:  total,
		Mean:   mean,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    percentile(sorted, 0.50),
		P95:    percentile(sorted, 0.95),
		P99:    percentile(sorted, 0.99),
		Stddev: math.Sqrt(ss / float64(len(sorted))),
	}
}

// percentile returns the value at quantile q of an ascending-sorted slice
// using the nearest-rank method.
func percentile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
