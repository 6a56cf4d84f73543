// Package dataflasks is an epidemic, dependable key-value substrate —
// a from-scratch Go implementation of DATAFLASKS (Maia, Matos, Vilaça,
// Pereira, Oliveira, Rivière; DSN 2013).
//
// DataFlasks is the persistent bottom layer of a stratified store: it
// assumes an upper layer (the paper's DataDroplets) that totally orders
// writes per key by attaching version numbers, and in exchange offers
// extreme scale and churn tolerance by being fully unstructured:
//
//   - membership is a gossip Peer Sampling Service (Cyclon/Newscast);
//   - the system autonomously partitions itself into k slices ordered
//     by node capacity, with no coordination (distributed slicing);
//   - a key belongs to a slice, and every node of that slice stores it
//     — the slice size is the replication factor;
//   - requests are routed over the random views until they hit the
//     target slice — one hop when the relaying node's view names a
//     member of it, bounded epidemic flooding otherwise and on the
//     client's retries — then disseminated intra-slice only;
//   - anti-entropy between slice-mates keeps replicas converged under
//     churn.
//
// Three deployment modes share the identical protocol code:
//
//   - Cluster: an in-process cluster of goroutine-driven nodes,
//     for embedding and tests (this package).
//   - Node: a real node on TCP (cmd/flasksd).
//   - internal/lab: thousands of nodes in a deterministic
//     discrete-event simulation (cmd/flaskbench reproduces the paper's
//     evaluation with it).
package dataflasks

import (
	"dataflasks/internal/core"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// Latest is the version sentinel for newest-wins reads.
const Latest = store.Latest

// AllVersions is the version sentinel for whole-key deletes: every
// stored version of the key is removed on each replica (Redis DEL
// semantics). Valid in Delete, DeleteAsync and KeyVersion; rejected by
// writes.
const AllVersions = store.AllVersions

// Object is one (key, version, value) triple, the unit of batch writes
// (Client.PutBatch).
type Object = store.Object

// KeyVersion names one (key, version) pair, the unit of batch deletes
// (Client.DeleteBatch). Version may be Latest to remove each replica's
// newest stored version of the key, or AllVersions to remove the whole
// key.
type KeyVersion struct {
	Key     string
	Version uint64
}

// NodeID identifies a node in a cluster.
type NodeID = transport.NodeID

// PSS selects the peer-sampling protocol.
type PSS int

// Peer-sampling choices.
const (
	// Cyclon is the default: shuffle-based membership with strong
	// self-healing (the view turnover evicts dead peers fast).
	Cyclon PSS = iota
	// Newscast trades some in-degree uniformity for simplicity and
	// very fast news propagation.
	Newscast
)

// Slicer selects the slice-manager protocol.
type Slicer int

// Engine selects the persistence engine behind a node's data
// directory.
type Engine int

// Engine choices.
const (
	// LogEngine (the default for nodes with a data directory) is the
	// log-structured engine: segmented append-only files, checksummed
	// records, group-commit fsync and background compaction.
	LogEngine Engine = iota
	// MemoryEngine keeps objects in RAM even when a data directory is
	// configured.
	MemoryEngine
)

// Slicer choices.
const (
	// RankSlicer estimates each node's capacity rank from the gossip
	// stream at zero message cost (the DSlead-style default).
	RankSlicer Slicer = iota
	// SwapSlicer is Jelasity–Kermarrec ordered slicing (two messages
	// per node per round).
	SwapSlicer
	// StaticSlicer hashes the node id — the paper's "coin toss"
	// baseline; it cannot rebalance after correlated failures.
	StaticSlicer
)

// Config tunes a DataFlasks deployment. The zero value is a working
// configuration for a mid-sized cluster; Slices and SystemSize are the
// knobs most deployments set.
type Config struct {
	// Slices is the number of slices k; the expected replication
	// factor is N/k (default 10, the paper's evaluation setting).
	// Clients use it too: to group batch puts per slice and to contact
	// a member of the key's slice directly. A client whose value
	// disagrees with the nodes' still completes every operation — nodes
	// re-route what reaches the wrong slice — at the price of relay hops.
	Slices int
	// SystemSize is the expected node count N, used to size gossip
	// fanout and flood TTLs. Zero enables the built-in gossip size
	// estimator instead.
	SystemSize int
	// Capacity is this node's slicing attribute (for example free
	// disk space). Zero draws a stable pseudo-capacity from the node
	// id.
	Capacity float64
	// PSS selects the membership protocol.
	PSS PSS
	// Slicer selects the slice manager.
	Slicer Slicer
	// PutAcks is how many replica acknowledgements complete a write
	// (default 1; -1 makes writes fire-and-forget).
	PutAcks int
	// DisableAntiEntropy turns off replica repair between slice-mates
	// (repair is on by default).
	DisableAntiEntropy bool
	// MaxPushBytes bounds the value bytes per anti-entropy repair push
	// message (default 1 MiB); a single larger object still ships
	// alone.
	MaxPushBytes int
	// RepairRateBytes caps repair push bytes per node per anti-entropy
	// round (a token bucket), so background repair cannot starve
	// foreground traffic. 0 = unlimited.
	RepairRateBytes int
	// EvictForeign lets a node drop objects outside its slice after a
	// slice change (off by default, like the paper's conservative
	// stance).
	EvictForeign bool
	// Bootstrap makes the node recover its slice's data in bulk at
	// startup: it asks a slice-mate for whole sealed segments
	// (internal/bootstrap) and lets anti-entropy mop up the delta. Off
	// by default; set it on a node (re)joining a cluster that already
	// holds data.
	Bootstrap bool
	// BootstrapRateBytes caps the bytes a node streams to joiners per
	// gossip round (0 = 1 MiB default, negative = unlimited), so serving
	// a cold joiner cannot starve foreground traffic.
	BootstrapRateBytes int
	// Engine selects the persistence engine used with a data
	// directory (default LogEngine).
	Engine Engine
	// Fsync makes writes block until durable; the log engine coalesces
	// concurrent writers into one fsync (group commit).
	Fsync bool
	// SegmentMaxBytes is the log engine's segment roll size
	// (default 64 MiB).
	SegmentMaxBytes int64
	// CompactLiveRatio is the live-byte ratio under which the log
	// engine compacts sealed segments (default 0.5; negative
	// disables).
	CompactLiveRatio float64
	// CompactRateBytesPerSec throttles the log engine's background
	// compaction copy I/O in bytes per second (0 = unlimited), keeping
	// maintenance from starving foreground requests.
	CompactRateBytesPerSec int64
	// DataShards partitions the node's data plane (puts, gets, deletes
	// and their batches) across this many shard goroutines by key hash,
	// each with its own mailbox and coalescing window, while the
	// epidemic control plane stays single-threaded. Raise it on
	// multi-core hosts saturated by data traffic; keep the default on
	// small nodes. 0 or 1 means one shard: there is one runtime, and a
	// live node runs it on shard goroutines.
	DataShards int
	// Seed makes a cluster's randomness reproducible (0 = fixed
	// default seed).
	Seed uint64
}

// coreConfig translates the public configuration to the internal one.
func (c Config) coreConfig() core.Config {
	cc := core.Config{
		Slices:       c.Slices,
		SystemSize:   c.SystemSize,
		Capacity:     c.Capacity,
		Seed:         c.Seed,
		EvictForeign: c.EvictForeign,
		DataShards:   c.DataShards,
	}
	switch c.PSS {
	case Newscast:
		cc.PSS = core.PSSNewscast
	default:
		cc.PSS = core.PSSCyclon
	}
	switch c.Slicer {
	case SwapSlicer:
		cc.Slicer = core.SlicerSwap
	case StaticSlicer:
		cc.Slicer = core.SlicerStatic
	default:
		cc.Slicer = core.SlicerRank
	}
	if c.DisableAntiEntropy {
		cc.AntiEntropyEvery = -1
	}
	cc.AntiEntropyMaxPushBytes = c.MaxPushBytes
	cc.AntiEntropyRateBytes = c.RepairRateBytes
	cc.Bootstrap = c.Bootstrap
	cc.BootstrapRateBytes = c.BootstrapRateBytes
	cc.Store = core.StoreConfig{
		Fsync:                  c.Fsync,
		SegmentMaxBytes:        c.SegmentMaxBytes,
		CompactLiveRatio:       c.CompactLiveRatio,
		CompactRateBytesPerSec: c.CompactRateBytesPerSec,
	}
	switch c.Engine {
	case MemoryEngine:
		cc.Store.Engine = core.StoreMemory
	default:
		cc.Store.Engine = core.StoreLog
	}
	return cc
}

// slicesOrDefault returns the configured slice count with the default
// applied (clients need it to group batch puts per target slice and to
// pick contacts from the slice directory).
func (c Config) slicesOrDefault() int {
	if c.Slices > 0 {
		return c.Slices
	}
	return 10
}

// clientPutAcks translates the public ack knob for the client library.
func (c Config) clientPutAcks() int {
	switch {
	case c.PutAcks < 0:
		return -1 // fire-and-forget
	case c.PutAcks == 0:
		return 1
	default:
		return c.PutAcks
	}
}
