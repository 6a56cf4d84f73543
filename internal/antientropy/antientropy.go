// Package antientropy implements the replication-maintenance machinery
// the paper leaves as future work (§VII): periodic digest exchanges
// between slice-mates that (a) pull objects a node misses — so a node
// that joins a slice converges to the slice's object set without a
// dedicated state-transfer protocol — and (b) keep the replication
// factor at slice size despite churn, message loss and TTL-expired
// floods.
//
// A round opens with A→B Sums: the store's per-range fingerprints
// (store.RangeSums — an XOR of header hashes and a count per key-hash
// range, maintained by the engines as headers enter and leave, never by
// a scan), folded to the power-of-two count that fits A's store. B
// compares them with its own. All equal: the round is over — nothing is
// sent back and neither side has walked a header. Otherwise B answers
// for the ranges that differ, and only those, with the two-phase
// exchange below, naming them in the message so every later leg stays
// inside them. Cost scales with the difference, not with the store.
//
// Most rounds are Bloom rounds: B→A Summary(Bloom filter of B's headers
// in the differing ranges); A pushes the objects the filter proves B
// lacks and answers A→B SummaryReply(A's filter); B pushes
// symmetrically. Digest cost is O(bits) instead of O(objects · key
// bytes), and pushes ride directly on filter evidence (a Bloom filter
// has no false negatives), so there is no Pull leg. Every FullEvery-th
// round A sets Sums.Full and the answer is the original full-header
// exchange — B→A Digest(headers); A→B Pull + DigestReply; B→A Push, and
// symmetrically — which is immune to the filter's ~1% false positives
// and therefore the convergence guarantee: an object a Bloom round
// skipped (its header false-positived as present) is provably repaired
// by the next full round of its range.
//
// A Summary or Digest that names no ranges covers the whole store: that
// is the frame a peer from before the range sums opens its rounds with
// (and Config.WholeStore, the lab's baseline), and the same handlers
// answer it.
//
// Repair is budgeted so it cannot starve foreground traffic: each Push
// is bounded in objects (MaxPush) and value bytes (MaxPushBytes), a
// per-node token bucket (RateBytesPerRound) caps bytes shipped per
// round, and values are served through store.StreamObjects — straight
// from log-segment offsets with CRC32 re-verification, skipping (never
// propagating) locally corrupt records. Repeated rounds converge.
package antientropy

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"slices"

	"dataflasks/internal/hashmix"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// Header identifies one object without its value.
type Header struct {
	Key     string
	Version uint64
}

// Sums opens a round: the sender's range fingerprints, folded to
// len(Sums) — a power of two up to store.NumRanges — words. Full asks
// for the differing ranges to be settled with full headers (Digest)
// instead of a Bloom Summary.
type Sums struct {
	Slice int32
	Full  bool
	Sums  []uint64
}

// Digest opens a full-header exchange with the sender's object headers
// in Ranges (up to MaxDigest, sampled uniformly beyond that). The zero
// Ranges — absent on the wire — means every range.
type Digest struct {
	Slice   int32
	Headers []Header
	Ranges  store.RangeSet
}

// DigestReply returns the responder's headers in the Digest's ranges so
// the initiator can pull symmetrically.
type DigestReply struct {
	Slice   int32
	Headers []Header
	Ranges  store.RangeSet
}

// Pull requests the listed objects' values.
type Pull struct {
	Headers []Header
}

// Push delivers requested (or provably missing) objects.
type Push struct {
	Objects []store.Object
}

// Env is what the protocol needs from its host node.
type Env struct {
	// Store is the local object store.
	Store store.Store
	// Send emits a message to a peer; it counts what fails (the node's
	// accounting sender does). Anti-entropy is self-healing — a lost
	// exchange is retried by construction on a later round.
	Send transport.Sender
	// Partner picks a random slice-mate to exchange with.
	Partner func() (transport.NodeID, bool)
	// Slice returns the node's current slice claim and Slices the slice
	// count it is a claim among. Together they say which keys belong to
	// the node's slice, gating what gets pulled/pushed, what EvictForeign
	// drops and what the range sums the node compares cover.
	Slice  func() int32
	Slices func() int
	// OnDigestBytes, when non-nil, receives the approximate wire size
	// of every difference-discovery message sent (Sums, Digest,
	// DigestReply, Summary, SummaryReply, Pull) — the bandwidth the node
	// spends finding out WHAT to repair, as opposed to shipping the
	// repairs.
	OnDigestBytes func(n int)
	// OnCompared, when non-nil, is called once per Sums answered with
	// how many of its sums differed from the local ones: zero is a clean
	// round, the mate's store proved equal to ours.
	OnCompared func(differing int)
	// OnPush, when non-nil, is called once per Push sent with its
	// object count and summed value bytes.
	OnPush func(objects, valueBytes int)
	// OnCorrupt, when non-nil, receives the number of locally corrupt
	// records skipped while serving a push (surfaced so operators see
	// rot that repair routed around).
	OnCorrupt func(n int)
}

// Config tunes the exchange.
type Config struct {
	// MaxPush bounds objects per Push message (default 64); the rest
	// is picked up on later rounds.
	MaxPush int
	// MaxPushBytes bounds the summed value bytes per Push message
	// (default 1 MiB). A single object larger than the budget still
	// ships alone, so oversized values are not starved forever.
	MaxPushBytes int
	// RateBytesPerRound is the per-node repair-rate limiter: a token
	// bucket refilled by this many bytes each Tick (burst: four
	// rounds' worth) that every pushed value is charged against, so
	// background repair cannot monopolize the disk and network under
	// foreground load. Zero (the default) is unlimited.
	RateBytesPerRound int
	// FullEvery makes every FullEvery-th round a full-header exchange;
	// the rounds between open with a Bloom summary. 1 means every
	// round is full-header (Bloom disabled); negative means Bloom only
	// (no false-positive-proof fallback — experiments only). Default 8.
	FullEvery int
	// MaxDigest bounds headers per full Digest; a store larger than
	// this advertises a uniformly random subset each full round, which
	// still converges. Bloom summaries always cover every header.
	// Default 4096.
	MaxDigest int
	// EvictForeign drops local objects outside the node's slice during
	// Tick (after a slice change). Default false.
	EvictForeign bool
	// WholeStore opens every round the way nodes did before the range
	// sums — a Summary or Digest of all local headers, whether or not
	// anything differs. The lab's in-run baseline (E17); nothing else
	// sets it.
	WholeStore bool
}

func (c *Config) defaults() {
	if c.MaxPush <= 0 {
		c.MaxPush = 64
	}
	if c.MaxPushBytes <= 0 {
		c.MaxPushBytes = 1 << 20
	}
	if c.FullEvery == 0 {
		c.FullEvery = 8
	}
	if c.MaxDigest <= 0 {
		c.MaxDigest = 4096
	}
}

// Protocol runs anti-entropy for one node. Not safe for concurrent use.
type Protocol struct {
	cfg Config
	env Env
	rng *rand.Rand

	// rounds counts Ticks; it drives the Bloom/full-header cadence.
	rounds uint64
	// tokens is the repair-rate bucket (bytes); meaningful only when
	// RateBytesPerRound > 0. May go one object negative so a single
	// value larger than the refill still makes progress.
	tokens int64

	// foreign fingerprints, range by range, the local headers outside
	// the node's slice — objects kept from before a slice change, which
	// no exchange will ever move — as the last walk of the range found
	// them, under the (slice, slice count) they were judged by. The sums
	// a node compares are the store's less these (localSums): without
	// them one stale object would keep its range different from every
	// mate's, and re-digested, for good. A memo that has gone stale (the
	// object was deleted since) makes the range read different once
	// more, and that walk corrects it.
	foreign       store.RangeSums
	foreignSlice  int32
	foreignSlices int
}

// New creates the protocol. All Env fields except the metric hooks are
// required.
func New(cfg Config, env Env, rng *rand.Rand) *Protocol {
	cfg.defaults()
	if env.Store == nil || env.Send == nil || env.Partner == nil || env.Slice == nil || env.Slices == nil {
		panic("antientropy: incomplete Env")
	}
	if rng == nil {
		panic("antientropy: New requires an rng")
	}
	return &Protocol{cfg: cfg, env: env, rng: rng}
}

// Tick opens one exchange with a random slice-mate — the store's range
// sums, marked Full every FullEvery-th tick — refills the repair rate
// bucket and, when configured, evicts foreign objects. ctx bounds the
// round's sends.
func (p *Protocol) Tick(ctx context.Context) {
	p.rounds++
	if rate := int64(p.cfg.RateBytesPerRound); rate > 0 {
		p.tokens += rate
		if burst := 4 * rate; p.tokens > burst {
			p.tokens = burst
		}
	}
	if p.cfg.EvictForeign {
		p.evictForeign()
	}
	peer, ok := p.env.Partner()
	if !ok {
		return
	}
	if !p.cfg.WholeStore {
		local := p.localSums()
		sums := fold(&local, foldCount(countIn(&local, store.AllRanges())))
		p.noteDigestBytes(sumsWireSize(sums))
		p.send(ctx, peer, &Sums{Slice: p.env.Slice(), Full: p.fullRound(), Sums: sums})
		return
	}
	if p.fullRound() {
		p.sendDigest(ctx, peer, store.RangeSet{})
		return
	}
	p.sendSummary(ctx, peer, store.RangeSet{})
}

// fullRound reports whether the current round uses full headers.
func (p *Protocol) fullRound() bool {
	if p.cfg.FullEvery == 1 {
		return true
	}
	if p.cfg.FullEvery < 0 {
		return false
	}
	return p.rounds%uint64(p.cfg.FullEvery) == 0
}

// Handle processes anti-entropy traffic; it reports false for foreign
// messages. ctx bounds any replies and pushes the handler emits.
func (p *Protocol) Handle(ctx context.Context, from transport.NodeID, msg interface{}) bool {
	switch m := msg.(type) {
	case *Sums:
		if m.Slice != p.env.Slice() {
			return true // stale partner from another slice; ignore
		}
		local := p.localSums()
		diff, n, ok := differing(&local, m.Sums)
		if !ok {
			return true // not a fold of NumRanges sums; nothing to compare
		}
		if p.env.OnCompared != nil {
			p.env.OnCompared(n)
		}
		switch {
		case n == 0:
			// Every range equal: the stores hold the same headers.
		case m.Full:
			p.sendDigest(ctx, from, diff)
		default:
			p.sendSummary(ctx, from, diff)
		}
		return true
	case *Digest:
		if m.Slice != p.env.Slice() {
			return true
		}
		p.pullMissing(ctx, from, m.Headers)
		hs := p.digest(selected(m.Ranges))
		p.noteDigestBytes(headersWireSize(hs) + rangesWireSize(m.Ranges))
		p.send(ctx, from, &DigestReply{Slice: p.env.Slice(), Headers: hs, Ranges: m.Ranges})
		return true
	case *DigestReply:
		if m.Slice != p.env.Slice() {
			return true
		}
		p.pullMissing(ctx, from, m.Headers)
		return true
	case *Summary:
		if m.Slice != p.env.Slice() {
			return true
		}
		p.pushMissing(ctx, from, &m.Filter, selected(m.Ranges))
		f := p.summary(selected(m.Ranges))
		p.noteDigestBytes(f.SizeBytes() + rangesWireSize(m.Ranges))
		p.send(ctx, from, &SummaryReply{Slice: p.env.Slice(), Filter: f, Ranges: m.Ranges})
		return true
	case *SummaryReply:
		if m.Slice != p.env.Slice() {
			return true
		}
		p.pushMissing(ctx, from, &m.Filter, selected(m.Ranges))
		return true
	case *Pull:
		p.servePull(ctx, from, m)
		return true
	case *Push:
		// One store call for the whole push: the log engine turns the
		// batch into a single append and one group-commit fsync instead
		// of a lock acquisition (and fsync) per object. An object no
		// engine stores never joins the batch, so one stray object cannot
		// fail the repair of the rest; an I/O error is left to later
		// rounds. The message may be shared with other recipients, so
		// filter into a fresh slice.
		batch := make([]store.Object, 0, len(m.Objects))
		for _, o := range m.Objects {
			if p.inSlice(o.Key) && store.CheckObject(o.Key, o.Version, o.Value) == nil {
				batch = append(batch, o)
			}
		}
		if len(batch) > 0 {
			_ = p.env.Store.PutBatch(batch)
		}
		return true
	default:
		return false
	}
}

func (p *Protocol) send(ctx context.Context, to transport.NodeID, msg interface{}) {
	//flasks:fire-and-forget Env.Send counts a failure; a later round retries
	_ = p.env.Send.Send(ctx, to, msg)
}

func (p *Protocol) noteDigestBytes(n int) {
	if p.env.OnDigestBytes != nil {
		p.env.OnDigestBytes(n)
	}
}

// sendDigest opens the full-header exchange for ranges (zero: the whole
// store, the frame from before the range sums).
func (p *Protocol) sendDigest(ctx context.Context, to transport.NodeID, ranges store.RangeSet) {
	hs := p.digest(selected(ranges))
	p.noteDigestBytes(headersWireSize(hs) + rangesWireSize(ranges))
	p.send(ctx, to, &Digest{Slice: p.env.Slice(), Headers: hs, Ranges: ranges})
}

// sendSummary opens the Bloom exchange for ranges (zero: the whole
// store).
func (p *Protocol) sendSummary(ctx context.Context, to transport.NodeID, ranges store.RangeSet) {
	f := p.summary(selected(ranges))
	p.noteDigestBytes(f.SizeBytes() + rangesWireSize(ranges))
	p.send(ctx, to, &Summary{Slice: p.env.Slice(), Filter: f, Ranges: ranges})
}

// selected maps a message's range set to the ranges it covers: a frame
// that names none covers them all.
func selected(ranges store.RangeSet) store.RangeSet {
	if ranges == (store.RangeSet{}) {
		return store.AllRanges()
	}
	return ranges
}

// headersPerSum sizes the opening message to the store: one sum per
// this many headers, so a differing sum narrows the exchange to a few
// dozen headers while a small store is not charged NumRanges words to
// say it is converged.
const headersPerSum = 32

// foldCount returns how many sums a store of count headers opens a
// round with: the power of two nearest above count/headersPerSum, from
// 1 up to store.NumRanges.
func foldCount(count int) int {
	want := (count + headersPerSum - 1) / headersPerSum
	if want >= store.NumRanges {
		return store.NumRanges
	}
	if want <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(want-1))
}

// fold XORs the NumRanges range sums down to n words (n a power of two
// up to NumRanges): word i covers the ranges r with r mod n == i, each
// contributing its XOR with its header count mixed in.
func fold(sums *store.RangeSums, n int) []uint64 {
	out := make([]uint64, n)
	for r := range sums {
		out[r&(n-1)] ^= sums[r].XOR ^ hashmix.Mix64(uint64(sums[r].Count))
	}
	return out
}

// differing compares a peer's folded sums with the local ones and
// returns the ranges behind the words that differ and how many words
// did. When every word differs the set comes back zero — the whole
// store, with no range set to spend bytes on. ok is false when theirs
// is not a fold of NumRanges sums.
func differing(local *store.RangeSums, theirs []uint64) (diff store.RangeSet, n int, ok bool) {
	words := len(theirs)
	if words == 0 || words > store.NumRanges || words&(words-1) != 0 {
		return diff, 0, false
	}
	for i, ours := range fold(local, words) {
		if ours == theirs[i] {
			continue
		}
		n++
		for r := i; r < store.NumRanges; r += words {
			diff.Add(r)
		}
	}
	if n == words {
		diff = store.RangeSet{}
	}
	return diff, n, true
}

// countIn sums the header counts of the selected ranges.
func countIn(sums *store.RangeSums, ranges store.RangeSet) int {
	n := 0
	for r := range sums {
		if ranges.Has(r) {
			n += sums[r].Count
		}
	}
	return n
}

// sumsWireSize approximates the encoded size of a Sums message.
func sumsWireSize(sums []uint64) int { return 8*len(sums) + 9 }

// rangesWireSize is what naming a range set costs on the wire: nothing
// when absent.
func rangesWireSize(ranges store.RangeSet) int {
	if ranges == (store.RangeSet{}) {
		return 0
	}
	return 8 * len(ranges)
}

// headersWireSize approximates the encoded size of a header list: key
// bytes plus version and length framing per entry.
func headersWireSize(hs []Header) int {
	n := 0
	for _, h := range hs {
		n += len(h.Key) + 10
	}
	return n
}

// inSlice reports whether a key belongs to the node's current slice.
func (p *Protocol) inSlice(key string) bool {
	slice := p.env.Slice()
	return slice != slicing.SliceUnknown && slicing.KeySlice(key, p.env.Slices()) == slice
}

// rescope forgets the foreign fingerprints once the node's slice or the
// slice count is no longer the one they were judged by.
func (p *Protocol) rescope() {
	if slice, k := p.env.Slice(), p.env.Slices(); slice != p.foreignSlice || k != p.foreignSlices {
		p.foreign, p.foreignSlice, p.foreignSlices = store.RangeSums{}, slice, k
	}
}

// localSums fingerprints the local headers that belong to the node's
// slice: the store's range sums less the foreign headers.
func (p *Protocol) localSums() store.RangeSums {
	p.rescope()
	sums := p.env.Store.RangeSums()
	for r := range sums {
		sums[r].XOR ^= p.foreign[r].XOR
		sums[r].Count -= p.foreign[r].Count
	}
	return sums
}

// walk visits every local header of the selected ranges, and files what
// it sees outside the node's slice as those ranges' foreign
// fingerprint.
func (p *Protocol) walk(ranges store.RangeSet, fn func(key string, version uint64)) {
	p.rescope()
	var found *store.RangeSums // nil until a foreign header turns up
	_ = p.env.Store.ForEachIn(ranges, func(key string, version uint64) bool {
		if !p.inSlice(key) {
			if found == nil {
				found = new(store.RangeSums)
			}
			r, h := store.HeaderSum(key, version)
			found[r].XOR ^= h
			found[r].Count++
		}
		fn(key, version)
		return true
	})
	for r := range p.foreign {
		switch {
		case !ranges.Has(r):
		case found == nil:
			p.foreign[r] = store.RangeSum{}
		default:
			p.foreign[r] = found[r]
		}
	}
}

// digest lists up to MaxDigest local headers of the selected ranges;
// beyond that it advertises a random subset (reservoir sampling keeps
// the choice uniform).
func (p *Protocol) digest(ranges store.RangeSet) []Header {
	out := make([]Header, 0, 128)
	seen := 0
	p.walk(ranges, func(key string, version uint64) {
		seen++
		h := Header{Key: key, Version: version}
		if len(out) < p.cfg.MaxDigest {
			out = append(out, h)
		} else if j := p.rng.IntN(seen); j < p.cfg.MaxDigest {
			out[j] = h
		}
	})
	return out
}

// summary encodes every local header of the selected ranges into a
// Bloom filter. Unlike digest it is never sampled down — the whole
// point is that O(bits) covers them all. Each summary draws a fresh
// salt so a header that false-positives this round is tested under an
// independent hash family next round instead of being skipped until the
// full-header fallback (see Filter).
func (p *Protocol) summary(ranges store.RangeSet) Filter {
	sums := p.env.Store.RangeSums()
	f := NewFilterSalted(countIn(&sums, ranges), p.rng.Uint64())
	p.walk(ranges, f.Add)
	return *f
}

// pullMissing asks the peer for the headers of theirs that we lack and
// should hold.
func (p *Protocol) pullMissing(ctx context.Context, from transport.NodeID, theirs []Header) {
	if wants := p.missing(theirs); len(wants) > 0 {
		p.noteDigestBytes(headersWireSize(wants))
		p.send(ctx, from, &Pull{Headers: wants})
	}
}

// missing returns the headers we lack and should hold. Presence is
// asked of the index (Versions), never of the values: the log engine's
// Get reads and checksums the whole record. Header lists arrive in
// (key, version) order, so one lookup serves all versions of a key.
func (p *Protocol) missing(theirs []Header) []Header {
	var wants []Header
	var have []uint64 // stored versions of key, once looked is set
	var err error
	key, looked := "", false
	for _, h := range theirs {
		if !p.inSlice(h.Key) {
			continue
		}
		if !looked || h.Key != key {
			key, looked = h.Key, true
			have, err = p.env.Store.Versions(key)
		}
		if err == nil && !slices.Contains(have, h.Version) {
			wants = append(wants, h)
			if len(wants) >= p.cfg.MaxPush {
				break
			}
		}
	}
	return wants
}

// pushMissing pushes the local in-slice objects of the selected ranges
// that the peer's filter proves absent over there (no false negatives,
// so every push is productive; a false positive just defers the object
// to a full round).
func (p *Protocol) pushMissing(ctx context.Context, to transport.NodeID, f *Filter, ranges store.RangeSet) {
	refs := make([]store.Ref, 0, 16)
	_ = p.env.Store.ForEachIn(ranges, func(key string, version uint64) bool {
		if !p.inSlice(key) {
			return true
		}
		if f.Contains(key, version) {
			return true
		}
		refs = append(refs, store.Ref{Key: key, Version: version})
		return len(refs) < p.cfg.MaxPush
	})
	p.pushRefs(ctx, to, refs)
}

func (p *Protocol) servePull(ctx context.Context, from transport.NodeID, m *Pull) {
	refs := make([]store.Ref, 0, len(m.Headers))
	for _, h := range m.Headers {
		refs = append(refs, store.Ref{Key: h.Key, Version: h.Version})
	}
	p.pushRefs(ctx, from, refs)
}

// pushRefs streams the referenced objects out of the store — CRC-
// verified straight from log segments, skipping corrupt records — and
// ships them as one Push, bounded by MaxPush objects, MaxPushBytes
// value bytes and the repair-rate bucket. Whatever the budget cut off
// is picked up by a later round.
func (p *Protocol) pushRefs(ctx context.Context, to transport.NodeID, refs []store.Ref) {
	if len(refs) == 0 {
		return
	}
	objs := make([]store.Object, 0, len(refs))
	bytes := 0
	corrupt, _ := p.env.Store.StreamObjects(refs, func(o store.Object) bool {
		if len(objs) >= p.cfg.MaxPush {
			return false
		}
		if bytes > 0 && bytes+len(o.Value) > p.cfg.MaxPushBytes {
			return false
		}
		if !p.takeTokens(len(o.Value)) {
			return false
		}
		// The streamed value aliases the store's scratch buffer; the
		// outgoing message needs its own copy.
		val := make([]byte, len(o.Value))
		copy(val, o.Value)
		objs = append(objs, store.Object{Key: o.Key, Version: o.Version, Value: val})
		bytes += len(o.Value)
		return true
	})
	if corrupt > 0 && p.env.OnCorrupt != nil {
		p.env.OnCorrupt(corrupt)
	}
	if len(objs) == 0 {
		return
	}
	if p.env.OnPush != nil {
		p.env.OnPush(len(objs), bytes)
	}
	p.send(ctx, to, &Push{Objects: objs})
}

// takeTokens charges n bytes against the repair-rate bucket. The
// bucket may go one object negative — otherwise a value larger than
// the refill could never ship.
func (p *Protocol) takeTokens(n int) bool {
	if p.cfg.RateBytesPerRound <= 0 {
		return true
	}
	if p.tokens <= 0 {
		return false
	}
	p.tokens -= int64(n)
	return true
}

// evictForeign drops every stored object outside the node's slice in
// one store call.
func (p *Protocol) evictForeign() {
	var foreign []store.Deletion
	_ = p.env.Store.ForEachIn(store.AllRanges(), func(key string, version uint64) bool {
		if !p.inSlice(key) {
			foreign = append(foreign, store.Deletion{Key: key, Version: version})
		}
		return true
	})
	_, _ = p.env.Store.DeleteBatch(foreign)
	p.foreign = store.RangeSums{}
}
