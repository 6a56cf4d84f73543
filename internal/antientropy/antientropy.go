// Package antientropy implements the replication-maintenance machinery
// the paper leaves as future work (§VII): periodic exchanges between
// slice-mates that (a) pull objects a node misses — so a node that joins
// a slice converges to the slice's object set without a dedicated
// state-transfer protocol — and (b) keep the replication factor at slice
// size despite churn, message loss and TTL-expired floods.
//
// Repair is range-based set reconciliation over key-hash prefixes, and
// one message kind, Reconcile, carries the whole descent. A round opens
// with A→B the fingerprints of A's top prefixes: the per-range sums the
// engines keep current as headers enter and leave (store.RangeSums — an
// XOR of header hashes and a count per key-hash range, never a scan),
// folded by prefix to the power-of-two count that fits A's store, so
// word i covers a contiguous block of ranges. B compares them with its
// own. All equal: the round is over — nothing is sent back and neither
// side has walked a header. For each prefix that differs, B answers with
// its exact header list there when it holds at most leafHeaders, or else
// with the fingerprints of the prefix's children one to eight bits
// deeper, and A answers those children the same way. Every step goes at
// least one bit deeper, so each difference ends in a list. The side that
// receives a list pushes the objects the list lacks and pulls those it
// lacks itself, which settles the prefix in both directions. The
// exchange is exact — there are no false positives to fall back from —
// and finding d differences costs about d·log(n/d) fingerprints plus d
// short lists, however large the store.
//
// Prefixes of store.RangeBits bits or fewer are summed from the range
// sums, with no walk; deeper ones take one walk (store.ForEachIn) per
// message over the ranges they lie in. A prefix that cannot split — one
// key with many versions — goes as a list of at most maxDigest headers,
// sampled uniformly beyond that, which still converges.
//
// Repair is budgeted so it cannot starve foreground traffic: each Push
// is bounded in objects (MaxPush) and value bytes (MaxPushBytes), a
// per-node token bucket (RateBytesPerRound) caps bytes shipped per
// round, a Reconcile carries at most maxItems prefixes, and values are
// served through store.StreamObjects — straight from log-segment offsets
// with CRC32 re-verification, skipping (never propagating) locally
// corrupt records. Whatever a budget cuts off waits for a later round.
package antientropy

import (
	"cmp"
	"context"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"

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

// Item is one step of the descent: the keys whose store.KeyHash starts
// with the Depth bits of Prefix. It carries either the fingerprints of
// the prefix's len(Sums) children — a power of two, each child
// log2(len(Sums)) bits deeper — or, when Sums is empty, the sender's
// exact list of its in-slice headers under the prefix.
type Item struct {
	Depth   uint8
	Prefix  uint64
	Sums    []uint64
	Headers []Header
}

// Valid reports whether the item names a prefix — at most 64 bits, none
// set above Depth — and carries no sums or a power-of-two count of at
// most 2^maxSplitBits of them whose children stay within 64 bits. The
// wire decoder rejects any other item.
func (it *Item) Valid() bool {
	if it.Depth > 64 || it.Depth < 64 && it.Prefix>>it.Depth != 0 {
		return false
	}
	n := len(it.Sums)
	if n == 0 {
		return true
	}
	b := bits.TrailingZeros(uint(n))
	return n == 1<<b && b <= maxSplitBits && int(it.Depth)+b <= 64
}

// Reconcile is the repair message: the sender's slice claim and the
// prefixes it describes. A round's opener is one Item at depth 0.
type Reconcile struct {
	Slice int32
	Items []Item
}

// Pull requests the listed objects' values.
type Pull struct {
	Headers []Header
}

// Push delivers requested (or provably missing) objects.
type Push struct {
	Objects []store.Object
}

const (
	// headersPerSum sizes the opener to the store: one fingerprint per
	// this many headers, so a small store is not charged NumRanges words
	// to say it is converged.
	headersPerSum = 32
	// leafHeaders is where the descent stops: a side holding at most
	// this many in-slice headers under a differing prefix sends them.
	leafHeaders = 8
	// maxSplitBits caps one step at 2^8 children.
	maxSplitBits = 8
	// maxItems caps the prefixes one Reconcile describes; differing
	// prefixes over it wait for a later round.
	maxItems = 64
	// maxDigest caps one header list. Only a prefix that cannot split
	// (or the whole-store reference list) reaches it; beyond it the list
	// is a uniform sample.
	maxDigest = 4096
)

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
	// drops and what the fingerprints the node compares cover.
	Slice  func() int32
	Slices func() int
	// OnDigestBytes, when non-nil, receives the approximate wire size
	// of every difference-discovery message sent (Reconcile, Pull) — the
	// bandwidth the node spends finding out WHAT to repair, as opposed
	// to shipping the repairs.
	OnDigestBytes func(n int)
	// OnCompared, when non-nil, is called once per Reconcile answered
	// that carries fingerprints, with how many of them differed from the
	// local ones: zero on an opener is a clean round, the mate's store
	// proved equal to ours.
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
	// EvictForeign drops local objects outside the node's slice during
	// Tick (after a slice change). Default false.
	EvictForeign bool
	// WholeStore opens every round with a depth-0 list of every local
	// in-slice header instead of the fingerprints: the lab's full-header
	// reference (E17); nothing else sets it.
	WholeStore bool
}

func (c *Config) defaults() {
	if c.MaxPush <= 0 {
		c.MaxPush = 64
	}
	if c.MaxPushBytes <= 0 {
		c.MaxPushBytes = 1 << 20
	}
}

// Protocol runs anti-entropy for one node. Not safe for concurrent use.
type Protocol struct {
	cfg Config
	env Env
	rng *rand.Rand

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
	// mate's, and re-walked, for good. A memo that has gone stale (the
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

// Tick opens one exchange with a random slice-mate, refills the repair
// rate bucket and, when configured, evicts foreign objects. ctx bounds
// the round's sends.
func (p *Protocol) Tick(ctx context.Context) {
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
	var open Item
	if p.cfg.WholeStore {
		open.Headers = p.list(p.walk(store.AllRanges()))
	} else {
		v := view{sums: p.localSums()}
		total := 0
		for _, s := range v.sums {
			total += s.Count
		}
		open.Sums = fingerprints(v.tallies(0, 0, width(total, headersPerSum)))
	}
	p.sendItems(ctx, peer, []Item{open})
}

// Handle processes anti-entropy traffic; it reports false for foreign
// messages. ctx bounds any replies and pushes the handler emits.
func (p *Protocol) Handle(ctx context.Context, from transport.NodeID, msg interface{}) bool {
	switch m := msg.(type) {
	case *Reconcile:
		if m.Slice == p.env.Slice() { // else a stale partner from another slice
			p.reconcile(ctx, from, m.Items)
		}
		return true
	case *Pull:
		refs := make([]store.Ref, 0, len(m.Headers))
		for _, h := range m.Headers {
			refs = append(refs, store.Ref{Key: h.Key, Version: h.Version})
		}
		p.pushRefs(ctx, from, refs)
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

// reconcile answers one Reconcile: a list settles its prefix — what it
// lacks is pushed, what we lack of it pulled — and each child
// fingerprint that differs from ours is described one step deeper. It
// reads the range sums once and walks the store at most once, over the
// ranges of the prefixes the sums cannot answer for.
func (p *Protocol) reconcile(ctx context.Context, from transport.NodeID, msg []Item) {
	items := make([]*Item, 0, min(len(msg), maxItems))
	for i := range msg {
		if len(items) < maxItems && msg[i].Valid() {
			items = append(items, &msg[i])
		}
	}
	p.rescope()
	stored := p.env.Store.RangeSums()
	v := view{sums: p.lessForeign(stored)}
	var walk store.RangeSet
	for _, it := range items {
		if len(it.Sums) == 0 || !shallow(it) {
			addPrefix(&walk, int(it.Depth), it.Prefix)
			continue
		}
		for _, c := range v.differing(it) {
			addPrefix(&walk, c.depth, c.prefix)
		}
	}
	if walk != (store.RangeSet{}) {
		// The walk also refreshes the foreign fingerprints of what it
		// covered, so a range that read different only for a stale memo
		// reads equal now, and is not answered. The store is not read
		// again: writes since the first read would make ranges differ
		// that were never walked.
		v.headers = p.walk(walk)
		v.sums = p.lessForeign(stored)
	}

	var out []Item
	var push, pull []Header
	compared, differing := false, 0
	for _, it := range items {
		if len(it.Sums) == 0 {
			push, pull = p.settle(&v, it, push, pull)
			continue
		}
		compared = true
		for _, c := range v.differing(it) {
			differing++
			switch {
			case c.theirs == 0: // the peer holds nothing there
				for _, h := range v.under(c.depth, c.prefix) {
					push = append(push, h.Header)
				}
			case len(out) < maxItems:
				out = append(out, p.describe(&v, c))
			}
		}
	}
	if compared && p.env.OnCompared != nil {
		p.env.OnCompared(differing)
	}
	if len(out) > 0 {
		p.sendItems(ctx, from, out)
	}
	if len(pull) > 0 {
		p.noteDigestBytes(headersWireSize(pull))
		p.send(ctx, from, &Pull{Headers: pull})
	}
	refs := make([]store.Ref, min(len(push), p.cfg.MaxPush))
	for i, h := range push[:len(refs)] {
		refs[i] = store.Ref{Key: h.Key, Version: h.Version}
	}
	p.pushRefs(ctx, from, refs)
}

// settle answers the peer's list of its headers under the item's
// prefix: ours the list lacks join push, and the in-slice headers of it
// we lack join pull (up to MaxPush). A list of maxDigest headers
// may be a sample, so it moves pulls alone: what it omits, the peer may
// hold.
func (p *Protocol) settle(v *view, it *Item, push, pull []Header) ([]Header, []Header) {
	listed := make(map[Header]bool, len(it.Headers))
	for _, h := range it.Headers {
		listed[h] = true
	}
	mine := v.under(int(it.Depth), it.Prefix)
	have := make(map[Header]bool, len(mine))
	for _, h := range mine {
		have[h.Header] = true
		if len(it.Headers) < maxDigest && !listed[h.Header] {
			push = append(push, h.Header)
		}
	}
	// What we hold is known under the prefix alone.
	shift := 64 - int(it.Depth)
	for _, h := range it.Headers {
		if len(pull) < p.cfg.MaxPush && !have[h] && store.KeyHash(h.Key)>>shift == it.Prefix && p.inSlice(h.Key) {
			have[h] = true
			pull = append(pull, h)
		}
	}
	return push, pull
}

// describe answers a prefix whose fingerprint differs: its header list
// when we hold at most leafHeaders there (or it cannot split), else the
// fingerprints of its children.
func (p *Protocol) describe(v *view, c child) Item {
	it := Item{Depth: uint8(c.depth), Prefix: c.prefix}
	if b := v.split(c); b > 0 {
		it.Sums = fingerprints(v.tallies(c.depth, c.prefix, b))
	} else {
		it.Headers = p.list(v.under(c.depth, c.prefix))
	}
	return it
}

// list turns walked headers into a header list of at most maxDigest,
// a uniform sample (reservoir) beyond that.
func (p *Protocol) list(hs []header) []Header {
	out := make([]Header, 0, min(len(hs), maxDigest))
	for i, h := range hs {
		if len(out) < maxDigest {
			out = append(out, h.Header)
		} else if j := p.rng.IntN(i + 1); j < maxDigest {
			out[j] = h.Header
		}
	}
	return out
}

// view is what one message is answered from: the local in-slice range
// sums and, for the prefixes they cannot answer for, the in-slice
// headers the message's one walk found, ordered by key hash.
type view struct {
	sums    store.RangeSums
	headers []header
}

// header is a walked header with its store.KeyHash and its
// store.HeaderSum hash.
type header struct {
	Header
	kh, sum uint64
}

// child is a prefix of depth bits, the local tally under it and the
// peer's fingerprint of it (zero: the peer holds nothing there).
type child struct {
	depth  int
	prefix uint64
	tally  store.RangeSum
	theirs uint64
}

// split returns how many bits a differing prefix is split by: zero when
// it goes as a list instead, because it holds at most leafHeaders here
// or cannot split — it is 64 bits deep, or every header under it is of
// one key (the walk covered every differing prefix).
func (v *view) split(c child) int {
	if c.tally.Count <= leafHeaders || c.depth == 64 {
		return 0
	}
	if hs := v.under(c.depth, c.prefix); len(hs) > 0 && hs[0].kh == hs[len(hs)-1].kh {
		return 0
	}
	return min(width(c.tally.Count, leafHeaders), 64-c.depth)
}

// width returns log2 of how many children hold about per of count
// headers each: the power of two at or above count/per, at most
// 2^maxSplitBits.
func width(count, per int) int {
	return min(bits.Len(uint(max(count-1, 0)/per)), maxSplitBits)
}

// shallow reports whether a fingerprint item's children are summed from
// the range sums.
func shallow(it *Item) bool {
	return int(it.Depth)+bits.TrailingZeros(uint(len(it.Sums))) <= store.RangeBits
}

// differing returns the children of a fingerprint item whose local
// fingerprint differs from the one it carries.
func (v *view) differing(it *Item) []child {
	b := bits.TrailingZeros(uint(len(it.Sums)))
	var out []child
	for i, t := range v.tallies(int(it.Depth), it.Prefix, b) {
		if fingerprint(t) != it.Sums[i] {
			out = append(out, child{int(it.Depth) + b, it.Prefix<<b | uint64(i), t, it.Sums[i]})
		}
	}
	return out
}

// tallies returns the XOR and count of the local in-slice headers under
// each of the prefix's 2^b children: from the range sums when the
// children are ranges or blocks of them, else from the walked headers.
func (v *view) tallies(depth int, prefix uint64, b int) []store.RangeSum {
	out := make([]store.RangeSum, 1<<b)
	if depth+b <= store.RangeBits {
		for i := range out {
			lo, hi := store.PrefixRanges(depth+b, prefix<<b|uint64(i))
			for _, s := range v.sums[lo:hi] {
				out[i].XOR ^= s.XOR
				out[i].Count += s.Count
			}
		}
		return out
	}
	shift := 64 - depth - b
	for _, h := range v.under(depth, prefix) {
		t := &out[h.kh>>shift&(1<<b-1)]
		t.XOR ^= h.sum
		t.Count++
	}
	return out
}

// under returns the walked headers under a prefix.
func (v *view) under(depth int, prefix uint64) []header {
	shift := 64 - depth
	i := sort.Search(len(v.headers), func(i int) bool { return v.headers[i].kh >= prefix<<shift })
	j := i
	for j < len(v.headers) && v.headers[j].kh>>shift == prefix {
		j++
	}
	return v.headers[i:j]
}

// fingerprint is what a tally is compared by: two header sets that
// differ have different fingerprints but for a 2^-64 chance.
func fingerprint(t store.RangeSum) uint64 { return t.XOR ^ hashmix.Mix64(uint64(t.Count)) }

func fingerprints(ts []store.RangeSum) []uint64 {
	out := make([]uint64, len(ts))
	for i, t := range ts {
		out[i] = fingerprint(t)
	}
	return out
}

// addPrefix adds the ranges a prefix lies in to a walk.
func addPrefix(set *store.RangeSet, depth int, prefix uint64) {
	lo, hi := store.PrefixRanges(depth, prefix)
	for r := lo; r < hi; r++ {
		set.Add(r)
	}
}

func (p *Protocol) send(ctx context.Context, to transport.NodeID, msg interface{}) {
	//flasks:fire-and-forget Env.Send counts a failure; a later round retries
	_ = p.env.Send.Send(ctx, to, msg)
}

func (p *Protocol) sendItems(ctx context.Context, to transport.NodeID, items []Item) {
	n := 5 // slice and item count
	for _, it := range items {
		// Depth, the prefix as a uvarint, the sum count.
		n += 2 + max(1, (int(it.Depth)+6)/7) + 8*len(it.Sums)
		if len(it.Sums) == 0 {
			n += 1 + headersWireSize(it.Headers)
		}
	}
	p.noteDigestBytes(n)
	p.send(ctx, to, &Reconcile{Slice: p.env.Slice(), Items: items})
}

func (p *Protocol) noteDigestBytes(n int) {
	if p.env.OnDigestBytes != nil {
		p.env.OnDigestBytes(n)
	}
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
	return p.lessForeign(p.env.Store.RangeSums())
}

// lessForeign returns the given store range sums less the foreign
// fingerprints.
func (p *Protocol) lessForeign(sums store.RangeSums) store.RangeSums {
	for r := range sums {
		sums[r].XOR ^= p.foreign[r].XOR
		sums[r].Count -= p.foreign[r].Count
	}
	return sums
}

// walk returns the local in-slice headers of the selected ranges ordered
// by key hash, and files what it sees outside the node's slice as those
// ranges' foreign fingerprint.
func (p *Protocol) walk(ranges store.RangeSet) []header {
	p.rescope()
	var found *store.RangeSums // nil until a foreign header turns up
	var out []header
	_ = p.env.Store.ForEachIn(ranges, func(key string, version uint64) bool {
		r, h := store.HeaderSum(key, version)
		if p.inSlice(key) {
			out = append(out, header{Header{key, version}, store.KeyHash(key), h})
			return true
		}
		if found == nil {
			found = new(store.RangeSums)
		}
		found[r].XOR ^= h
		found[r].Count++
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
	slices.SortFunc(out, func(a, b header) int {
		if a.kh != b.kh {
			return cmp.Compare(a.kh, b.kh)
		}
		return cmp.Or(strings.Compare(a.Key, b.Key), cmp.Compare(a.Version, b.Version))
	})
	return out
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
