package antientropy

import (
	"dataflasks/internal/hashmix"
	"dataflasks/internal/store"
)

// Filter is a Bloom filter over object headers: the compact digest
// that opens most anti-entropy rounds. Instead of advertising up to
// MaxDigest full (key, version) headers — O(objects · key bytes) on
// the wire — a node ships ~filterBitsPerHeader bits per object,
// independent of key length, and the responder tests its own headers
// against the filter. The filter has no false negatives: a header it
// reports absent is definitely absent, so pushing such objects is
// always productive. It has ~1% false positives: a header it reports
// present may in fact be missing on the sender, which is why the
// protocol keeps a periodic full-header round as the convergence
// guarantee (Config.FullEvery).
//
// Hashing is double hashing over the shared hashmix finalizer
// (Kirsch–Mitzenmacher: probe i uses h1 + i·h2), so Add and Contains
// cost two 64-bit mixes regardless of K. The zero Filter is valid and
// contains nothing — an empty store summarizes to "I have nothing",
// making the responder push everything it may.
//
// Salt perturbs the hash family. Without it, whether a given header
// false-positives against a given object set is a pure function of the
// keys involved — the SAME ~1% of headers is skipped on every Bloom
// round between every pair, and only the periodic full-header round
// can repair them. With a fresh random salt per summary, each round
// draws an independent false-positive set, so a header skipped this
// round is overwhelmingly likely to be repaired a round or two later
// instead of waiting out FullEvery. Salt travels inside the filter, so
// the tester always probes with the builder's hash family; a zero salt
// reproduces the unsalted family, keeping old frames meaningful.
type Filter struct {
	// K is the number of bit probes per header.
	K uint32
	// Salt perturbs the hash family (zero: unsalted legacy family).
	Salt uint64
	// Bits is the bit array, packed 64 per word.
	Bits []uint64
}

const (
	// filterBitsPerHeader sizes a filter at build time; together with
	// filterHashes probes it yields ~1% false positives at capacity.
	filterBitsPerHeader = 10
	// filterHashes is K for filters built by NewFilter.
	filterHashes = 7
)

// NewFilter returns an empty unsalted filter sized for n headers.
func NewFilter(n int) *Filter { return NewFilterSalted(n, 0) }

// NewFilterSalted returns an empty filter sized for n headers hashing
// with the given salt's family.
func NewFilterSalted(n int, salt uint64) *Filter {
	if n < 1 {
		n = 1
	}
	words := (n*filterBitsPerHeader + 63) / 64
	return &Filter{K: filterHashes, Salt: salt, Bits: make([]uint64, words)}
}

// headerHashes derives the double-hashing pair for one header under
// one salt's hash family. h2 is forced odd so consecutive probes never
// collapse onto one bit. Salt zero is exactly the unsalted family.
func headerHashes(key string, version uint64, salt uint64) (h1, h2 uint64) {
	h1 = hashmix.HashString(key) ^ hashmix.HashUint64(version)
	if salt != 0 {
		h1 ^= hashmix.Mix64(salt)
	}
	h2 = hashmix.Mix64(h1) | 1
	return
}

// Add inserts one header.
func (f *Filter) Add(key string, version uint64) {
	m := uint64(len(f.Bits)) * 64
	if m == 0 {
		return
	}
	h1, h2 := headerHashes(key, version, f.Salt)
	k := f.K
	if k == 0 {
		k = 1
	}
	for i := uint64(0); i < uint64(k); i++ {
		idx := (h1 + i*h2) % m
		f.Bits[idx/64] |= 1 << (idx % 64)
	}
}

// Contains reports whether the header may have been added: false is
// definitive, true may be a false positive. An empty or zero filter
// contains nothing.
func (f *Filter) Contains(key string, version uint64) bool {
	m := uint64(len(f.Bits)) * 64
	if m == 0 {
		return false
	}
	h1, h2 := headerHashes(key, version, f.Salt)
	k := f.K
	if k == 0 {
		k = 1
	}
	for i := uint64(0); i < uint64(k); i++ {
		idx := (h1 + i*h2) % m
		if f.Bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBytes approximates the filter's wire footprint (bit words plus
// the K and Salt fields) — what digest-bandwidth accounting charges
// per Summary.
func (f *Filter) SizeBytes() int { return len(f.Bits)*8 + 12 }

// Summary opens a Bloom exchange: a constant-bits-per-object encoding
// of every local header in Ranges (unlike full Digests, it is never
// sampled down). The responder pushes the objects the filter proves
// missing and answers with its own filter so the exchange repairs both
// directions. The zero Ranges — absent on the wire — means every range.
type Summary struct {
	Slice  int32
	Filter Filter
	Ranges store.RangeSet
}

// SummaryReply carries the responder's filter for the Summary's ranges
// back, and the other side pushes symmetrically. It ends the round:
// pushes ride directly on filter evidence, so Bloom rounds need no Pull
// leg.
type SummaryReply struct {
	Slice  int32
	Filter Filter
	Ranges store.RangeSet
}
