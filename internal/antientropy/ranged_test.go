package antientropy_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"dataflasks/internal/antientropy"
	"dataflasks/internal/sim"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// countingStore counts the calls a repair round must not make when
// nothing differs (header walks) or at all (value reads to test
// presence), and remembers the range sets walked.
type countingStore struct {
	store.Store
	walks  atomic.Int64
	gets   atomic.Int64
	walked []store.RangeSet
}

func (c *countingStore) ForEachIn(set store.RangeSet, fn func(string, uint64) bool) error {
	c.walks.Add(1)
	c.walked = append(c.walked, set)
	return c.Store.ForEachIn(set, fn)
}

func (c *countingStore) Get(key string, version uint64) ([]byte, uint64, bool, error) {
	c.gets.Add(1)
	return c.Store.Get(key, version)
}

func (c *countingStore) reset() {
	c.walks.Store(0)
	c.gets.Store(0)
	c.walked = nil
}

// pair wires two protocols (ids 1 and 2, one slice among k) over a
// synchronous queue. drop, when set, discards a message before delivery.
type pair struct {
	a, b   *antientropy.Protocol
	sa, sb *countingStore
	slice  [3]int32 // per node id; a test may move a node
	queue  []transport.Envelope
	log    []transport.Envelope // everything sent, in order
	digest int                  // Σ OnDigestBytes
	drop   func(env transport.Envelope) bool

	clean, differing int // Σ OnCompared
}

func newPair(t *testing.T, cfgA, cfgB antientropy.Config, slice int32, k int) *pair {
	t.Helper()
	return newPairOn(cfgA, cfgB, slice, k, store.NewMemory(), store.NewMemory())
}

// newPairOn is newPair over the given stores.
func newPairOn(cfgA, cfgB antientropy.Config, slice int32, k int, sa, sb store.Store) *pair {
	p := &pair{slice: [3]int32{0, slice, slice},
		sa: &countingStore{Store: sa}, sb: &countingStore{Store: sb}}
	mk := func(self, peer transport.NodeID, cfg antientropy.Config, st store.Store) *antientropy.Protocol {
		return antientropy.New(cfg, antientropy.Env{
			Store: st,
			Send: transport.SenderFunc(func(_ context.Context, to transport.NodeID, msg interface{}) error {
				env := transport.Envelope{From: self, To: to, Msg: msg}
				p.queue = append(p.queue, env)
				p.log = append(p.log, env)
				return nil
			}),
			Partner:       func() (transport.NodeID, bool) { return peer, true },
			Slice:         func() int32 { return p.slice[self] },
			Slices:        func() int { return k },
			OnDigestBytes: func(n int) { p.digest += n },
			OnCompared: func(differing int) {
				if differing == 0 {
					p.clean++
				}
				p.differing += differing
			},
		}, sim.RNG(1, uint64(self)))
	}
	p.a = mk(1, 2, cfgA, p.sa)
	p.b = mk(2, 1, cfgB, p.sb)
	return p
}

// round ticks one side and delivers until the exchange has played out.
func (p *pair) round(initiator *antientropy.Protocol) {
	initiator.Tick(context.Background())
	for len(p.queue) > 0 {
		env := p.queue[0]
		p.queue = p.queue[1:]
		if p.drop != nil && p.drop(env) {
			continue
		}
		to := p.a
		if env.To == 2 {
			to = p.b
		}
		to.Handle(context.Background(), env.From, env.Msg)
	}
}

func (p *pair) resetCounts() {
	p.sa.reset()
	p.sb.reset()
	p.log, p.digest, p.clean, p.differing = nil, 0, 0, 0
}

// frameLen is the message's size on the wire, from the real codec.
func frameLen(t testing.TB, env transport.Envelope) int {
	t.Helper()
	frame, err := wire.BinaryCodec().Encode(nil, &wire.Envelope{From: env.From, To: env.To, Msg: env.Msg})
	if err != nil {
		t.Fatal(err)
	}
	return len(frame)
}

// sliceKeys returns n distinct keys of the slice.
func sliceKeys(slice int32, k, n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		if key := fmt.Sprintf("obj%07d", i); slicing.KeySlice(key, k) == slice {
			out = append(out, key)
		}
	}
	return out
}

// load stores the keys (version 1) on every given store.
func load(t testing.TB, keys []string, stores ...store.Store) {
	t.Helper()
	objs := make([]store.Object, len(keys))
	for i, key := range keys {
		objs[i] = store.Object{Key: key, Version: 1, Value: []byte("v")}
	}
	for _, st := range stores {
		if err := st.PutBatch(objs); err != nil {
			t.Fatal(err)
		}
	}
}

func rangeOf(key string, version uint64) int {
	r, _ := store.HeaderSum(key, version)
	return r
}

func oneRange(r int) store.RangeSet {
	var set store.RangeSet
	set.Add(r)
	return set
}

// TestConvergedRoundIsOneSmallMessage: between mates holding the same
// headers a round is the opening Sums and nothing else — at most 8 bytes
// per sum plus 64 on the wire — and neither side walks a header, however
// large the store.
func TestConvergedRoundIsOneSmallMessage(t *testing.T) {
	const slice, k = 1, 4
	for _, headers := range []int{0, 20, 1000, 9000} {
		p := newPair(t, antientropy.Config{}, antientropy.Config{}, slice, k)
		load(t, sliceKeys(slice, k, headers), p.sa, p.sb)
		for r := 0; r < 8; r++ { // rounds 1-7 Bloom, round 8 full
			p.resetCounts()
			p.round(p.a)
			if len(p.log) != 1 {
				t.Fatalf("%d headers, round %d: %d messages, want the Sums alone: %+v", headers, r+1, len(p.log), p.log)
			}
			sums, ok := p.log[0].Msg.(*antientropy.Sums)
			if !ok || sums.Full != (r == 7) {
				t.Fatalf("%d headers, round %d: sent %+v, want Sums{Full: %v}", headers, r+1, p.log[0].Msg, r == 7)
			}
			if got, max := frameLen(t, p.log[0]), 8*len(sums.Sums)+64; got > max {
				t.Fatalf("%d headers: Sums frame of %d sums is %d B, want <= %d", headers, len(sums.Sums), got, max)
			}
			if p.digest > 8*len(sums.Sums)+64 || p.digest < 8*len(sums.Sums) {
				t.Fatalf("%d headers: round charged %d digest bytes for %d sums", headers, p.digest, len(sums.Sums))
			}
			if w := p.sa.walks.Load() + p.sb.walks.Load(); w != 0 {
				t.Fatalf("%d headers: a converged round walked headers %d times", headers, w)
			}
			if p.clean != 1 || p.differing != 0 {
				t.Fatalf("%d headers: OnCompared saw clean=%d differing=%d, want one clean round", headers, p.clean, p.differing)
			}
		}
		want := map[int]int{0: 1, 20: 1, 1000: 32, 9000: store.NumRanges}[headers]
		if got := len(p.log[0].Msg.(*antientropy.Sums).Sums); got != want {
			t.Fatalf("%d headers opened with %d sums, want %d", headers, got, want)
		}
	}
}

// TestOneMissingObjectCostsOneRange: with one object missing on one side
// of a large store, the responder summarises the one range that differs,
// every walk on both sides stays inside it, and the object is repaired in
// that same round — whichever side lacks it.
func TestOneMissingObjectCostsOneRange(t *testing.T) {
	const slice, k = 1, 4
	keys := sliceKeys(slice, k, 9001)
	extra, keys := keys[9000], keys[:9000]
	for _, holder := range []string{"initiator", "responder"} {
		p := newPair(t, antientropy.Config{}, antientropy.Config{}, slice, k)
		load(t, keys, p.sa, p.sb)
		has, lacks := p.sa, p.sb
		if holder == "responder" {
			has, lacks = p.sb, p.sa
		}
		load(t, []string{extra}, has)
		want := oneRange(rangeOf(extra, 1))

		p.round(p.a)
		if _, _, ok, _ := lacks.Store.Get(extra, 1); !ok {
			t.Fatalf("%s holds the object: not repaired in the round", holder)
		}
		var summaries int
		for _, env := range p.log {
			switch m := env.Msg.(type) {
			case *antientropy.Summary:
				summaries++
				if m.Ranges != want {
					t.Errorf("%s: Summary names ranges %v, want only %v", holder, m.Ranges, want)
				}
				if got := frameLen(t, env); got > 256 {
					t.Errorf("%s: Summary of one range of a 9000-header store is %d B", holder, got)
				}
			case *antientropy.SummaryReply:
				if m.Ranges != want {
					t.Errorf("%s: SummaryReply names ranges %v, want only %v", holder, m.Ranges, want)
				}
			}
		}
		if summaries != 1 || p.differing != 1 || p.clean != 0 {
			t.Errorf("%s: %d summaries, OnCompared differing=%d clean=%d; want one of each, no clean round",
				holder, summaries, p.differing, p.clean)
		}
		for _, st := range []*countingStore{p.sa, p.sb} {
			if len(st.walked) == 0 {
				t.Errorf("%s: a side never walked the differing range", holder)
			}
			for _, set := range st.walked {
				if set != want {
					t.Errorf("%s: walked ranges %v, want only %v", holder, set, want)
				}
			}
		}
		// Repaired, the pair is converged: the next round is clean.
		p.resetCounts()
		p.round(p.b)
		if len(p.log) != 1 || p.clean != 1 {
			t.Errorf("%s: round after the repair sent %d messages (clean=%d), want the Sums alone", holder, len(p.log), p.clean)
		}
	}
}

// TestBloomFalsePositiveRepairedByFullRoundOfItsRange: a header the
// responder's filter false-positives is skipped by the Bloom leg, its
// range keeps reading different, and the next full round — a Digest of
// that one range — repairs it.
func TestBloomFalsePositiveRepairedByFullRoundOfItsRange(t *testing.T) {
	const slice, k = 1, 4
	p := newPair(t, antientropy.Config{FullEvery: 2}, antientropy.Config{FullEvery: 2}, slice, k)
	keys := sliceKeys(slice, k, 9000)
	load(t, keys, p.sa, p.sb)

	// B answers A's round 1 with a filter of its headers in the victim's
	// range under the first salt its rng yields; clone the stream, build
	// that filter for every candidate's range, and pick a victim — held
	// by A alone — that false-positives against it.
	salt := sim.RNG(1, 2).Uint64()
	inRange := make(map[int][]string)
	for _, key := range keys {
		inRange[rangeOf(key, 1)] = append(inRange[rangeOf(key, 1)], key)
	}
	victim := ""
	for i := 0; victim == "" && i < 5_000_000; i++ {
		key := fmt.Sprintf("fp%07d", i)
		if slicing.KeySlice(key, k) != slice {
			continue
		}
		mates := inRange[rangeOf(key, 7)]
		f := antientropy.NewFilterSalted(len(mates), salt)
		for _, m := range mates {
			f.Add(m, 1)
		}
		if f.Contains(key, 7) {
			victim = key
		}
	}
	if victim == "" {
		t.Fatal("no deterministic false positive found — filter parameters changed?")
	}
	if err := p.sa.Put(victim, 7, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	want := oneRange(rangeOf(victim, 7))

	p.round(p.a) // round 1: Bloom
	if _, _, ok, _ := p.sb.Store.Get(victim, 7); ok {
		t.Fatal("the Bloom round repaired the victim — it should false-positive under B's first salt")
	}
	p.resetCounts()
	p.round(p.a) // round 2: full
	if val, _, ok, _ := p.sb.Store.Get(victim, 7); !ok || string(val) != "precious" {
		t.Fatalf("the full round did not repair the false positive: ok=%v val=%q", ok, val)
	}
	digests := 0
	for _, env := range p.log {
		if m, ok := env.Msg.(*antientropy.Digest); ok {
			digests++
			if m.Ranges != want || len(m.Headers) != len(inRange[rangeOf(victim, 7)]) {
				t.Errorf("Digest lists %d headers of ranges %v, want the %d of range %v",
					len(m.Headers), m.Ranges, len(inRange[rangeOf(victim, 7)]), want)
			}
		}
	}
	if digests != 1 {
		t.Errorf("full round sent %d Digests, want 1", digests)
	}
	if g := p.sa.gets.Load() + p.sb.gets.Load(); g != 0 {
		t.Errorf("full round read %d values to test presence, want the index asked", g)
	}
}

// TestFullRoundAsksTheIndexNotTheDisk: a whole-store full-header round
// over thousands of headers tests presence through Versions — not one
// value is read.
func TestFullRoundAsksTheIndexNotTheDisk(t *testing.T) {
	const slice, k = 1, 4
	cfg := antientropy.Config{FullEvery: 1, WholeStore: true}
	p := newPair(t, cfg, cfg, slice, k)
	keys := sliceKeys(slice, k, 3000)
	load(t, keys[:2990], p.sa)
	load(t, keys[10:], p.sb)
	p.round(p.a)
	if g := p.sa.gets.Load() + p.sb.gets.Load(); g != 0 {
		t.Fatalf("full round over 3000 headers performed %d Gets, want 0", g)
	}
	if p.sa.Count() != 3000 || p.sb.Count() != 3000 {
		t.Fatalf("full round left a=%d b=%d objects, want 3000 each", p.sa.Count(), p.sb.Count())
	}
}

// TestWholeStoreFramesAnsweredAsBefore: a Summary or Digest that names
// no ranges — what a peer from before the range sums opens with — is
// answered over the whole store, with a reply that names none either.
func TestWholeStoreFramesAnsweredAsBefore(t *testing.T) {
	const slice, k = 1, 4
	keys := sliceKeys(slice, k, 40)
	headers := make([]antientropy.Header, 0, 30)
	for _, key := range keys[10:] {
		headers = append(headers, antientropy.Header{Key: key, Version: 1})
	}

	t.Run("Summary", func(t *testing.T) {
		p := newPair(t, antientropy.Config{}, antientropy.Config{}, slice, k)
		load(t, keys[:30], p.sb) // the old peer, A, holds keys[10:]
		theirs := antientropy.NewFilterSalted(30, 0x5a17)
		for _, h := range headers {
			theirs.Add(h.Key, h.Version)
		}
		p.b.Handle(context.Background(), 1, &antientropy.Summary{Slice: slice, Filter: *theirs})
		var pushed int
		var reply *antientropy.SummaryReply
		for _, env := range p.log {
			switch m := env.Msg.(type) {
			case *antientropy.Push:
				pushed += len(m.Objects)
			case *antientropy.SummaryReply:
				reply = m
			}
		}
		if pushed != 10 {
			t.Errorf("pushed %d objects, want the 10 the filter proves missing", pushed)
		}
		if reply == nil || reply.Ranges != (store.RangeSet{}) {
			t.Fatalf("reply = %+v, want a SummaryReply naming no ranges", reply)
		}
		for _, key := range keys[:30] {
			if !reply.Filter.Contains(key, 1) {
				t.Fatalf("reply's filter lacks %q: it must cover the whole store", key)
			}
		}
		if want := antientropy.NewFilter(30); len(reply.Filter.Bits) != len(want.Bits) {
			t.Errorf("reply's filter has %d words, want %d (sized for the whole store)", len(reply.Filter.Bits), len(want.Bits))
		}
	})

	t.Run("Digest", func(t *testing.T) {
		p := newPair(t, antientropy.Config{}, antientropy.Config{}, slice, k)
		load(t, keys[:30], p.sb)
		p.b.Handle(context.Background(), 1, &antientropy.Digest{Slice: slice, Headers: headers})
		var pull *antientropy.Pull
		var reply *antientropy.DigestReply
		for _, env := range p.log {
			switch m := env.Msg.(type) {
			case *antientropy.Pull:
				pull = m
			case *antientropy.DigestReply:
				reply = m
			}
		}
		if pull == nil || len(pull.Headers) != 10 {
			t.Errorf("pull = %+v, want the 10 headers B lacks", pull)
		}
		if reply == nil || reply.Ranges != (store.RangeSet{}) || len(reply.Headers) != 30 {
			t.Fatalf("reply = %+v, want a DigestReply of all 30 headers naming no ranges", reply)
		}
	})
}

// TestPeerThatDropsSumsConvergesThroughItsOwnRounds: an old peer decodes
// Sums as an unknown kind and ignores it, so the rounds its new mate
// opens repair nothing — and the whole-store rounds it opens itself,
// answered by the new mate, repair both.
func TestPeerThatDropsSumsConvergesThroughItsOwnRounds(t *testing.T) {
	const slice, k = 1, 4
	old := antientropy.Config{WholeStore: true}
	p := newPair(t, old, antientropy.Config{}, slice, k)
	p.drop = func(env transport.Envelope) bool {
		_, sums := env.Msg.(*antientropy.Sums)
		return sums && env.To == 1
	}
	keys := sliceKeys(slice, k, 60)
	load(t, keys[:40], p.sa)
	load(t, keys[20:], p.sb)

	p.round(p.b)
	if p.sa.Count() != 40 || p.sb.Count() != 40 {
		t.Fatalf("a round the old peer ignored moved objects: a=%d b=%d", p.sa.Count(), p.sb.Count())
	}
	// One round, or one more under a fresh salt for a false positive.
	for r := 0; r < 3 && (p.sa.Count() != 60 || p.sb.Count() != 60); r++ {
		p.round(p.a)
	}
	if p.sa.Count() != 60 || p.sb.Count() != 60 {
		t.Fatalf("the old peer's own rounds left a=%d b=%d objects, want 60 each", p.sa.Count(), p.sb.Count())
	}
	for _, env := range p.log {
		switch m := env.Msg.(type) {
		case *antientropy.Summary:
			if m.Ranges != (store.RangeSet{}) {
				t.Errorf("a ranged Summary was sent to or by the old peer: %v", m.Ranges)
			}
		case *antientropy.SummaryReply:
			if m.Ranges != (store.RangeSet{}) {
				t.Errorf("a ranged SummaryReply was sent to or by the old peer: %v", m.Ranges)
			}
		}
	}
}

// TestForeignObjectsCostOneWalk: an object a node kept from before a
// slice change, which no exchange will move, makes its range read
// different once — the walk that fingerprints it — and not again; when
// the node's slice changes the fingerprint is dropped with it, so an
// object that has become the slice's own is repaired, not hidden.
func TestForeignObjectsCostOneWalk(t *testing.T) {
	const k = 4
	p := newPair(t, antientropy.Config{}, antientropy.Config{}, 1, k)
	keys := sliceKeys(1, k, 9000)
	load(t, keys, p.sa, p.sb)
	stale := sliceKeys(2, k, 1)[0] // A was in slice 2 once
	load(t, []string{stale}, p.sa)

	p.round(p.a)
	if p.differing != 1 {
		t.Fatalf("first round with a foreign object: %d sums differed, want 1", p.differing)
	}
	if _, _, ok, _ := p.sb.Store.Get(stale, 1); ok {
		t.Fatal("a foreign object was replicated")
	}
	for _, initiator := range []*antientropy.Protocol{p.a, p.b, p.a} {
		p.resetCounts()
		p.round(initiator)
		if len(p.log) != 1 || p.clean != 1 || p.sa.walks.Load()+p.sb.walks.Load() != 0 {
			t.Fatalf("round after the foreign object was fingerprinted: %d messages, clean=%d, %d walks; want one clean Sums",
				len(p.log), p.clean, p.sa.walks.Load()+p.sb.walks.Load())
		}
	}

	// Both move to slice 2: the stale object is theirs now, B lacks it.
	p.slice[1], p.slice[2] = 2, 2
	p.round(p.b)
	if _, _, ok, _ := p.sb.Store.Get(stale, 1); !ok {
		t.Fatal("after the slice change the object belongs to the slice, and the round did not repair it")
	}
}
