package core

import (
	"time"

	"dataflasks/internal/obs"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// SlicerKind selects the slice-manager implementation.
type SlicerKind int

// Slicer choices.
const (
	// SlicerRank is the DSlead-style message-free rank estimator
	// (DataFlasks' default).
	SlicerRank SlicerKind = iota + 1
	// SlicerSwap is Jelasity–Kermarrec ordered slicing. No product path
	// sets it: it is the arm E3 (-exp slicing) compares the rank slicer
	// against.
	SlicerSwap
	// SlicerStatic is the hash "coin toss" baseline (§IV-A).
	SlicerStatic
)

// StoreEngine selects the node-local persistence engine.
type StoreEngine int

// Store engine choices.
const (
	// StoreMemory keeps objects in RAM — simulations, caches, tests.
	StoreMemory StoreEngine = iota + 1
	// StoreLog is the log-structured engine: segmented append-only
	// files, checksummed records, group-commit fsync and background
	// compaction. The default for persistent deployments.
	StoreLog
)

// StoreConfig selects and tunes the persistence engine. The zero value
// means "memory without a data directory, log with one".
type StoreConfig struct {
	// Engine picks the implementation (default: StoreLog when a data
	// directory is given, StoreMemory otherwise).
	Engine StoreEngine
	// Fsync makes writes block until durable. The log engine amortizes
	// the cost across concurrent writers via group commit.
	Fsync bool
	// SegmentMaxBytes is the log engine's segment roll size
	// (default 64 MiB).
	SegmentMaxBytes int64
	// CompactLiveRatio is the live-byte ratio under which the log
	// engine compacts sealed segments (default 0.5; negative disables).
	CompactLiveRatio float64
	// CompactRateBytesPerSec throttles the log engine's compaction
	// copy I/O (0 = unlimited) so background maintenance cannot starve
	// foreground requests.
	CompactRateBytesPerSec int64
}

// Open builds the configured engine rooted at dir. An empty dir (or
// StoreMemory) yields the memory engine.
func (sc StoreConfig) Open(dir string) (store.Store, error) {
	if dir == "" || sc.Engine == StoreMemory {
		return store.NewMemory(), nil
	}
	return store.OpenLog(dir, store.LogOptions{
		Fsync:                  sc.Fsync,
		SegmentMaxBytes:        sc.SegmentMaxBytes,
		CompactLiveRatio:       sc.CompactLiveRatio,
		CompactRateBytesPerSec: sc.CompactRateBytesPerSec,
	})
}

// Config tunes one DataFlasks node. The zero value is completed by
// defaults(); Slices and SystemSize are the two knobs every deployment
// sets.
type Config struct {
	// Slices is the number of slices k. Slice size N/k is the
	// replication factor (§IV-C).
	Slices int

	// SystemSize is the deployer's estimate of N, used to size fanout
	// and TTL. When zero the node uses its extrema-propagation size
	// estimate (internal/aggregate).
	SystemSize int

	// Slicer selects the slice manager (default SlicerRank).
	Slicer SlicerKind
	// Capacity is the node's slicing attribute (storage capacity,
	// §IV-A). Zero means "draw from node id" so heterogeneity exists
	// even in lazy deployments.
	Capacity float64

	// FanoutC is the c in fanout = ln(N)+c (default 1.0; §II gives
	// atomic-infection probability e^(-e^(-c))).
	FanoutC float64
	// BoundedPutFlood routes writes with the same bounded global phase
	// as reads, relying on anti-entropy to finish replication. Off by
	// default: writes use a full epidemic flood so the whole target
	// slice stores synchronously, which is the regime the paper's
	// write-only evaluation measures. Exposed for the ablation
	// experiments.
	BoundedPutFlood bool
	// DiscoveryMaxQueries bounds slice-mate discovery queries per round
	// (default 6).
	DiscoveryMaxQueries int

	// DataShards partitions the data plane (put/get/delete, batches) by
	// key hash into this many independent shard states; the put window
	// stays one per node. When the owner runs the shards
	// (Node.StartShards) each shard has its own mailbox, dedup cache and
	// counters, and a goroutine of its own among those that run them —
	// one run per wake-up over every idle shard, several runs in
	// parallel under load — while the epidemic control plane (PSS,
	// slicing, aggregation, anti-entropy, bootstrap) stays on the
	// single-threaded loop. Without StartShards the caller of
	// HandleMessage is every shard's goroutine — the same handlers over
	// the same shard states, single-threaded as simulations need.
	// Default 1.
	DataShards int

	// AntiEntropyEvery runs one anti-entropy exchange every this many
	// rounds (default 10; negative disables anti-entropy).
	AntiEntropyEvery int
	// AntiEntropyMaxPushBytes bounds the value bytes shipped per
	// repair Push message (default 1 MiB); a single larger object
	// still ships alone.
	AntiEntropyMaxPushBytes int
	// AntiEntropyRateBytes is the per-node repair-rate limiter: a
	// token bucket refilled by this many bytes each anti-entropy round
	// that every pushed value is charged against, so background repair
	// cannot starve foreground puts (0 = unlimited).
	AntiEntropyRateBytes int
	// AntiEntropyWholeStore opens every anti-entropy round with a list
	// of all local headers instead of the range fingerprints
	// (antientropy.Config.WholeStore): the lab's full-header reference
	// row in E17. No flag and no dataflasks.Config field reaches it.
	AntiEntropyWholeStore bool
	// EvictForeign drops stored objects whose key no longer maps to
	// this node's slice (after a slice change). Off by default: the
	// paper keeps data conservatively (§VII).
	EvictForeign bool

	// Bootstrap makes the node recover its slice's data in bulk at
	// startup: once it knows its slice it asks a slice mate for whole
	// sealed segments (internal/bootstrap) and lets anti-entropy mop up
	// the delta. Off by default — fresh nodes in a new cluster have
	// nothing to recover.
	Bootstrap bool
	// DisableBootstrap removes the segment-streaming protocol entirely:
	// the node neither joins via segments nor serves them. For
	// experiments that need an object-repair-only baseline.
	DisableBootstrap bool
	// BootstrapRateBytes is the per-round token budget for serving
	// segment chunks (0 = 1 MiB default, negative = unlimited), the
	// bulk-transfer analogue of AntiEntropyRateBytes.
	BootstrapRateBytes int

	// RoundPeriod is the live-runtime gossip period (default 500ms);
	// simulations drive ticks explicitly and ignore it.
	RoundPeriod time.Duration

	// Store selects and tunes the persistence engine. The node runtime
	// (not the protocol core) opens it against its data directory.
	Store StoreConfig

	// AdvertiseAddr is the node's dialable address, gossiped inside
	// PSS descriptors so TCP fabrics can build their routing
	// directory. Empty in simulations and in-process clusters.
	AdvertiseAddr string
	// AddressBook receives (id, addr) pairs learned from descriptors;
	// TCP fabrics implement it. Nil otherwise.
	AddressBook transport.AddressBook

	// Seed feeds the node's deterministic RNG stream.
	Seed uint64

	// Trace, when non-nil, journals protocol round events and traced
	// request lifecycles into this ring (served by the observability
	// plane's /trace). Nil keeps tracing entirely off the event loop's
	// path — no event is even constructed.
	Trace *obs.Ring
}

// withDefaults returns a copy with zero fields filled in.
func (c Config) withDefaults() Config {
	if c.Slices <= 0 {
		c.Slices = 10
	}
	if c.Slicer == 0 {
		c.Slicer = SlicerRank
	}
	if c.FanoutC == 0 {
		c.FanoutC = 1.0
	}
	if c.DiscoveryMaxQueries <= 0 {
		c.DiscoveryMaxQueries = 6
	}
	if c.DataShards <= 0 {
		c.DataShards = 1
	}
	if c.AntiEntropyEvery < 0 {
		c.AntiEntropyEvery = 0
	} else if c.AntiEntropyEvery == 0 {
		c.AntiEntropyEvery = 10
	}
	if c.AntiEntropyMaxPushBytes <= 0 {
		c.AntiEntropyMaxPushBytes = 1 << 20
	}
	if c.AntiEntropyRateBytes < 0 {
		c.AntiEntropyRateBytes = 0
	}
	if c.RoundPeriod <= 0 {
		c.RoundPeriod = 500 * time.Millisecond
	}
	return c
}
