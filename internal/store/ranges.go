package store

import (
	"sort"
	"sync"

	"dataflasks/internal/hashmix"
)

// NumRanges is the number of key-hash ranges every engine partitions
// its header index into: one per value of the top RangeBits bits of
// KeyHash. It is wire contract between replicas — two mates compare
// their RangeSums range by range — so it is a constant, not a knob.
const (
	RangeBits = 8
	NumRanges = 1 << RangeBits
)

// rangeSalt decorrelates the range hash from slicing.KeySlice (all of
// one node's keys share a slice, i.e. a band of the unsalted key hash)
// and from the data plane's shard hash.
const rangeSalt = 0xd6e8feb86659fd93

// RangeSet selects key-hash ranges, one bit per range.
type RangeSet [NumRanges / 64]uint64

// AllRanges returns the set of every range.
func AllRanges() RangeSet {
	var s RangeSet
	for i := range s {
		s[i] = ^uint64(0)
	}
	return s
}

// Add puts range r into the set.
func (s *RangeSet) Add(r int) { s[r>>6] |= 1 << (r & 63) }

// Has reports whether range r is in the set.
func (s RangeSet) Has(r int) bool { return s[r>>6]&(1<<(r&63)) != 0 }

// RangeSum fingerprints the headers of one range: the XOR of a 64-bit
// hash of every stored (key, version) pair, and how many there are. Two
// replicas holding the same headers in a range have equal sums; sums
// that differ prove the header sets do.
type RangeSum struct {
	XOR   uint64
	Count int
}

// RangeSums is one engine's fingerprint, range by range.
type RangeSums [NumRanges]RangeSum

// hkey is a key with its salted hash, computed once per operation: the
// top bits pick the range, the whole word seeds the header hash.
type hkey struct {
	key string
	h   uint64
}

func hashKey(key string) hkey {
	h := uint64(14695981039346656037) ^ rangeSalt
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return hkey{key: key, h: hashmix.Mix64(h)}
}

func (k hkey) rangeOf() int { return int(k.h >> (64 - RangeBits)) }

// KeyHash returns the salted hash the index files key under. Its top
// RangeBits bits are the key's range; a longer prefix of it narrows the
// range, which is how repair tells keys of one range apart.
func KeyHash(key string) uint64 { return hashKey(key).h }

// PrefixRanges returns the ranges [lo, hi) that hold the keys whose
// KeyHash starts with the depth (0 … 64) bits of prefix: a block of
// ranges up to depth RangeBits, the one range it narrows below that.
func PrefixRanges(depth int, prefix uint64) (lo, hi int) {
	if depth <= RangeBits {
		lo = int(prefix << (RangeBits - depth))
		return lo, lo + 1<<(RangeBits-depth)
	}
	lo = int(prefix >> (depth - RangeBits))
	return lo, lo + 1
}

// header hashes one (key, version) pair. The outer mix matters: without
// it the XOR of {(a,1),(b,2)} would equal that of {(a,2),(b,1)}.
func (k hkey) header(version uint64) uint64 {
	return hashmix.Mix64(k.h ^ hashmix.Mix64(version))
}

// HeaderSum returns the range (key, version) is filed under and the hash
// it contributes to that range's RangeSum.XOR — for a caller that keeps
// a fingerprint of some of the headers it walked, in the store's terms.
func HeaderSum(key string, version uint64) (rng int, hash uint64) {
	k := hashKey(key)
	return k.rangeOf(), k.header(version)
}

// rangeIndex is the header index under both engines: key → stored
// versions → the engine's per-version payload T (the value bytes in
// Memory, the record location in Log). Keys are partitioned by range so
// a ranged walk touches the selected partitions only, and add and
// remove — the only ways a header enters or leaves — keep every
// range's RangeSum current, so reading the sums never scans. Not safe
// for concurrent use: the engine's lock guards it.
type rangeIndex[T any] struct {
	parts [NumRanges]map[string]*indexKey[T]
	sums  RangeSums
	count int
}

// indexKey holds the stored versions of one key.
type indexKey[T any] struct {
	versions []uint64 // ascending
	vals     map[uint64]T
}

// latest returns the newest stored version; an indexKey is never empty.
func (e *indexKey[T]) latest() uint64 { return e.versions[len(e.versions)-1] }

// find returns the key's entry, nil when no version is stored.
func (x *rangeIndex[T]) find(k hkey) *indexKey[T] { return x.parts[k.rangeOf()][k.key] }

// get resolves (key, version) — Latest meaning the newest stored — to
// its payload.
func (x *rangeIndex[T]) get(k hkey, version uint64) (val T, actual uint64, ok bool) {
	e := x.find(k)
	if e == nil {
		return val, 0, false
	}
	if version == Latest {
		version = e.latest()
	}
	val, ok = e.vals[version]
	return val, version, ok
}

// has reports whether the entry — nil for a key with nothing stored —
// holds the version.
func (e *indexKey[T]) has(version uint64) bool {
	if e == nil {
		return false
	}
	_, ok := e.vals[version]
	return ok
}

// add files a header under e, the key's entry as find returned it (nil:
// the key's first version), and returns the entry. The caller has
// checked that the pair is not stored (has), which is what lets a put
// look its key up once.
func (x *rangeIndex[T]) add(e *indexKey[T], k hkey, version uint64, val T) *indexKey[T] {
	r := k.rangeOf()
	if e == nil {
		if x.parts[r] == nil {
			x.parts[r] = make(map[string]*indexKey[T])
		}
		e = &indexKey[T]{vals: make(map[uint64]T, 1)}
		x.parts[r][k.key] = e
	}
	e.vals[version] = val
	i := sort.Search(len(e.versions), func(i int) bool { return e.versions[i] >= version })
	e.versions = append(e.versions, 0)
	copy(e.versions[i+1:], e.versions[i:])
	e.versions[i] = version
	x.sums[r].XOR ^= k.header(version)
	x.sums[r].Count++
	x.count++
	return e
}

// remove drops one concrete version and returns its payload; ok is
// false, changing nothing, when the pair is not stored.
func (x *rangeIndex[T]) remove(k hkey, version uint64) (val T, ok bool) {
	r := k.rangeOf()
	e := x.parts[r][k.key]
	if e == nil {
		return val, false
	}
	if val, ok = e.vals[version]; !ok {
		return val, false
	}
	delete(e.vals, version)
	i := sort.Search(len(e.versions), func(i int) bool { return e.versions[i] >= version })
	e.versions = append(e.versions[:i], e.versions[i+1:]...)
	if len(e.versions) == 0 {
		delete(x.parts[r], k.key)
	}
	x.sums[r].XOR ^= k.header(version)
	x.sums[r].Count--
	x.count--
	return val, true
}

// versionsOf returns a copy of the key's stored versions, ascending.
func (x *rangeIndex[T]) versionsOf(key string) []uint64 {
	e := x.find(hashKey(key))
	if e == nil {
		return nil
	}
	return append([]uint64(nil), e.versions...)
}

// snapshot copies the headers of the selected ranges — what the engine
// does under its read lock, so the lock is held for the selection, not
// for the store.
func (x *rangeIndex[T]) snapshot(set RangeSet) *headerSnapshot {
	keys, count := 0, 0
	for r := range x.parts {
		if set.Has(r) {
			keys += len(x.parts[r])
			count += x.sums[r].Count
		}
	}
	h := &headerSnapshot{
		keys:     make([]keySpan, 0, keys),
		versions: make([]uint64, 0, count),
	}
	for r := range x.parts {
		if len(x.parts[r]) == 0 || !set.Has(r) {
			continue // most ranges of a small store hold nothing
		}
		for key, e := range x.parts[r] {
			start := len(h.versions)
			h.versions = append(h.versions, e.versions...)
			h.keys = append(h.keys, keySpan{key: key, start: start, end: len(h.versions)})
		}
	}
	return h
}

// lockedIndex is what both engines are built on: the header index, the
// lock that guards it and the closed flag, with the Store reads that
// need nothing but headers. Each engine embeds it and adds what its
// payload serves (Get, StreamObjects) and its writer.
type lockedIndex[T any] struct {
	mu     sync.RWMutex
	idx    rangeIndex[T]
	closed bool
}

// Versions implements Store.
func (x *lockedIndex[T]) Versions(key string) ([]uint64, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if x.closed {
		return nil, ErrClosed
	}
	return x.idx.versionsOf(key), nil
}

// ForEachIn implements Store.
func (x *lockedIndex[T]) ForEachIn(ranges RangeSet, fn func(key string, version uint64) bool) error {
	x.mu.RLock()
	if x.closed {
		x.mu.RUnlock()
		return ErrClosed
	}
	snapshot := x.idx.snapshot(ranges)
	x.mu.RUnlock()
	snapshot.visit(fn)
	return nil
}

// RangeSums implements Store.
func (x *lockedIndex[T]) RangeSums() RangeSums {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.idx.sums
}

// Count implements Store.
func (x *lockedIndex[T]) Count() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.idx.count
}
