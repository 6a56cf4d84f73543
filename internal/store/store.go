// Package store implements the Data Store abstraction of the paper's
// node architecture (§V): a versioned object store addressed by
// (key, version). Versions are assigned by the upper layer
// (DataDroplets) which totally orders puts, so the store never resolves
// conflicts — it keeps the versions it is given and serves exact-version
// or latest-version reads.
//
// Two engines are provided: a memory engine for the simulator and
// in-process clusters, and a log engine (segmented append-only files,
// CRC-checksummed records, group-commit fsync, background compaction)
// for anything with a data directory — its batched sequential writes
// carry the persistence DataFlasks owes the soft-state layer above it
// (§III) at epidemic replication rates.
package store

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Latest is the version sentinel for newest-wins reads.
const Latest uint64 = ^uint64(0)

// AllVersions is the version sentinel for deletes that remove every
// stored version of a key (whole-key removal — Redis DEL semantics
// through the RESP gateway). It is interpreted by the node's delete
// paths, which expand it to the replica's stored versions; engines
// never see it.
const AllVersions uint64 = ^uint64(0) - 1

// Object is one stored (key, version, value) triple.
type Object struct {
	Key     string
	Version uint64
	Value   []byte
}

// Deletion names one (key, version) pair of a DeleteBatch. Version may
// be Latest (resolved per item against the not-yet-deleted state).
type Deletion struct {
	Key     string
	Version uint64
}

// Ref names one stored (key, version) pair without its value — the
// unit of streamed reads (StreamObjects). Unlike Deletion, a Ref
// always names a concrete version: streaming serves exactly what a
// digest advertised, never a resolved sentinel.
type Ref struct {
	Key     string
	Version uint64
}

// ReservedVersion reports whether v is a sentinel no object may be
// stored under — every engine's Put/PutBatch rejects these, so a
// poisoned write can never shadow Latest reads or alias the delete
// sentinels.
func ReservedVersion(v uint64) bool { return v == Latest || v == AllVersions }

// MaxKeyLen is the longest key, in bytes, any engine stores — the
// bound every deployed cluster already enforces. The log record's u16
// key-length field could represent more; widening the bound would
// change which puts a cluster accepts, so it stays.
const MaxKeyLen = 128

// CheckKey returns ErrKeyTooLong, wrapped with the sizes, for a key over
// MaxKeyLen: the one key rule, applied by every engine's Put and
// PutBatch and by the client before it sends anything.
func CheckKey(key string) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrKeyTooLong, len(key), MaxKeyLen)
	}
	return nil
}

// SegmentInfo describes one sealed, immutable unit of bulk transfer:
// in the log engine a sealed segment file, in the memory engine a
// synthetic segment covering the whole object set. The manifest is
// what a bootstrap peer advertises and what a snapshot records, so it
// carries everything a receiver needs to schedule and verify the
// transfer without reading a byte of data: size, record count, a CRC
// of the full record stream, and the key range for slice-coverage
// decisions.
type SegmentInfo struct {
	// ID is the engine-local segment identifier. IDs are only
	// meaningful to the store that issued the manifest; two nodes'
	// segment 3 share nothing.
	ID uint64
	// Bytes is the exact length of the segment's record stream.
	Bytes int64
	// Records counts records (puts and tombstones) in the stream.
	Records int
	// CRC is the IEEE CRC32 of the full record stream, chunk CRCs
	// chained in order — the end-to-end check after a chunked fetch.
	CRC uint32
	// MinKey and MaxKey bound the keys appearing in the segment
	// (both empty for an empty segment). Receivers use them to skip
	// segments entirely outside their slice's key coverage.
	MinKey, MaxKey string
}

// SegmentRef names a piece of a sealed segment to stream: the whole
// segment when Offset is 0, or a resume point (a chunk boundary a
// previous stream reported) otherwise.
type SegmentRef struct {
	ID     uint64
	Offset int64
}

// SegmentChunk is one verbatim piece of a sealed segment's record
// stream, aligned to record boundaries so every chunk parses on its
// own. Data may alias a buffer reused between callbacks: receivers
// copy what they keep.
type SegmentChunk struct {
	Segment uint64
	Offset  int64 // byte offset of Data within the record stream
	Data    []byte
	Last    bool // true on the chunk that reaches the segment's end
}

// Store is the node-local persistence interface.
//
// Implementations must be safe for concurrent use: the node event loop,
// anti-entropy and test harnesses may touch the store from different
// goroutines in live deployments.
type Store interface {
	// Put stores value under (key, version). Storing an existing
	// (key, version) pair again is idempotent: the upper layer totally
	// orders puts, so equal pairs carry equal values and the second
	// write is a no-op.
	Put(key string, version uint64, value []byte) error
	// PutBatch stores a batch of objects in one engine call: one lock
	// acquisition, and in the log engine one encoded append plus one
	// group-commit fsync for the whole batch. Each engine applies its
	// own Put validation rules to every object before storing any, so
	// an object the engine's Put would reject (the reserved version or
	// a key over MaxKeyLen everywhere; an oversized value where the
	// engine has such a limit) fails the batch with no side effects;
	// an I/O failure mid-batch may leave a prefix applied. Objects
	// already present are skipped like idempotent re-puts.
	PutBatch(objs []Object) error
	// Get returns the value at (key, version); version Latest returns
	// the highest stored version. ok is false when absent.
	Get(key string, version uint64) (value []byte, actualVersion uint64, ok bool, err error)
	// Versions returns the stored versions of key in ascending order.
	Versions(key string) ([]uint64, error)
	// Delete removes one version of key; version Latest removes the
	// newest stored version (mirroring Get). It is a no-op when
	// absent; existed reports whether anything was actually removed
	// (batch deletes and the RESP gateway's DEL count rely on it).
	Delete(key string, version uint64) (existed bool, err error)
	// DeleteBatch removes a batch of (key, version) pairs in one
	// engine call — mirroring PutBatch: one lock acquisition and, in
	// the log engine, one group-commit fsync for every tombstone
	// instead of one per pair. Item versions may be Latest, resolved
	// in item order against the not-yet-deleted state. existed[i]
	// reports whether item i removed anything; an I/O failure
	// mid-batch may leave a prefix applied (existed reflects what
	// was).
	DeleteBatch(items []Deletion) (existed []bool, err error)
	// StreamObjects reads the values of the listed (key, version)
	// pairs and calls fn once per pair found, in list order. It is the
	// repair read path: engines with checksummed records (the log
	// engine) re-verify every record straight from its segment bytes,
	// and a record that is unreadable or fails verification is SKIPPED
	// — counted in corrupt, never served and never failing the rest of
	// the stream — so one rotted record cannot block the repair of the
	// objects around it. Pairs absent from the store are skipped
	// silently. The value passed to fn may alias a buffer reused
	// between calls (or, in the memory engine, the stored bytes): fn
	// must copy what it keeps and must not call back into the store.
	// Returning false from fn stops the stream early.
	StreamObjects(refs []Ref, fn func(o Object) bool) (corrupt int, err error)
	// Segments returns the manifest of sealed, immutable segments in
	// ascending id order — the units a bootstrap peer or snapshot can
	// stream in bulk. The log engine lists its sealed segment files
	// (never the active one, whose delta anti-entropy mops up); the
	// memory engine synthesizes a single segment covering the whole
	// object set. An empty store returns an empty manifest.
	Segments() ([]SegmentInfo, error)
	// StreamSegments streams the verbatim record bytes of the named
	// sealed segments, chunk by chunk in offset order, calling fn once
	// per chunk. Chunks align to record boundaries and every record is
	// CRC-re-verified as it is read, so a chunk that reaches fn is
	// whole and parseable on its own; a record that fails verification
	// stops that segment's stream with ErrCorrupt (a corrupt byte must
	// never be shipped verbatim — the receiver falls back to the
	// object-wise path for the remainder). A ref whose segment no
	// longer exists (compacted away since the manifest) is skipped
	// silently. Chunk data may alias a reused buffer: fn copies what
	// it keeps and must not call back into the store. Returning false
	// from fn stops the whole stream early.
	StreamSegments(refs []SegmentRef, fn func(c SegmentChunk) bool) error
	// ForEach visits every stored object header (no value):
	// ForEachIn(AllRanges(), fn).
	ForEach(fn func(key string, version uint64) bool) error
	// ForEachIn visits the headers of the selected key-hash ranges in
	// (key, version) order; returning false stops iteration. The engine
	// copies the selected ranges' headers under its read lock — held for
	// the selection, not for the store — and calls fn after releasing
	// it, so fn may call back into the store. Used to build anti-entropy
	// digests for the ranges two replicas differ in.
	ForEachIn(ranges RangeSet, fn func(key string, version uint64) bool) error
	// RangeSums returns the per-range fingerprint of the stored headers
	// (zero once closed). The engines maintain it where a header enters
	// or leaves their index — puts, deletes, a version cap, replay — so
	// the call costs one copy of NumRanges sums and never a scan; two
	// engines holding the same object set return equal sums.
	RangeSums() RangeSums
	// Count returns the number of stored objects (versions, not keys).
	Count() int
	// Close releases resources. The store is unusable afterwards.
	Close() error
}

// headerSnapshot is what ForEachIn iterates: every selected key once,
// its versions — ascending, as the index keeps them — a window into one
// shared array. rangeIndex.snapshot fills it under the engine's read
// lock; it is visited after the lock is released.
type headerSnapshot struct {
	keys     []keySpan
	versions []uint64
}

// keySpan locates one key's versions: versions[start:end].
type keySpan struct {
	key        string
	start, end int
}

// visit calls fn in (key, version) order — a stable order keeps
// protocols that truncate digests deterministic — until fn returns
// false. Only the keys are sorted: each key's versions already are.
func (h *headerSnapshot) visit(fn func(key string, version uint64) bool) {
	slices.SortFunc(h.keys, func(a, b keySpan) int { return strings.Compare(a.key, b.key) })
	for _, k := range h.keys {
		for _, v := range h.versions[k.start:k.end] {
			if !fn(k.key, v) {
				return
			}
		}
	}
}

// Stats is a point-in-time snapshot of an engine's physical state —
// what capacity planning and compaction monitoring need beyond the
// logical object Count. Engines without segment files report zeros.
type Stats struct {
	// Segments is the number of segment files, including the active one.
	Segments int
	// LiveBytes is the byte total of records the index still points at.
	LiveBytes int64
	// DeadBytes is the byte total of overwritten, deleted or tombstone
	// records awaiting compaction (file size minus live bytes).
	DeadBytes int64
	// CompactionPasses counts compaction passes that found candidate
	// segments and rewrote them (passes that found nothing are free and
	// uncounted).
	CompactionPasses uint64
}

// StatsProvider is implemented by engines that can report physical
// Stats (the log engine). Callers type-assert: the interface is
// optional so simple engines and test stubs need not fake segment
// accounting.
type StatsProvider interface {
	Stats() Stats
}

// Errors shared by engines.
var (
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("store: closed")
	// ErrKeyTooLong reports a key longer than MaxKeyLen.
	ErrKeyTooLong = errors.New("store: key too long")
	// ErrBadVersion reports a reserved sentinel (Latest, AllVersions)
	// used as a concrete version in Put.
	ErrBadVersion = fmt.Errorf("store: versions %d and %d are reserved", AllVersions, Latest)
	// ErrCorrupt reports a record that fails checksum or structural
	// verification; a corrupt record is never served as data.
	ErrCorrupt = errors.New("store: corrupt record")
	// ErrValueTooLarge reports a value exceeding an engine's record
	// size limit.
	ErrValueTooLarge = errors.New("store: value too large")
)
