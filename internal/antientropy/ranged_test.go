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
// headers a round is the opening Reconcile and nothing else — at most 8
// bytes per fingerprint plus 64 on the wire — and neither side walks a
// header, however large the store.
func TestConvergedRoundIsOneSmallMessage(t *testing.T) {
	const slice, k = 1, 4
	for _, headers := range []int{0, 20, 1000, 9000} {
		p := newPair(t, antientropy.Config{}, antientropy.Config{}, slice, k)
		load(t, sliceKeys(slice, k, headers), p.sa, p.sb)
		for r := 0; r < 8; r++ {
			p.resetCounts()
			p.round(p.a)
			if len(p.log) != 1 {
				t.Fatalf("%d headers, round %d: %d messages, want the opener alone: %+v", headers, r+1, len(p.log), p.log)
			}
			open := opener(t, p.log[0])
			if got, max := frameLen(t, p.log[0]), 8*len(open.Sums)+64; got > max {
				t.Fatalf("%d headers: opener of %d sums is %d B, want <= %d", headers, len(open.Sums), got, max)
			}
			if p.digest > 8*len(open.Sums)+64 || p.digest < 8*len(open.Sums) {
				t.Fatalf("%d headers: round charged %d digest bytes for %d sums", headers, p.digest, len(open.Sums))
			}
			if w := p.sa.walks.Load() + p.sb.walks.Load(); w != 0 {
				t.Fatalf("%d headers: a converged round walked headers %d times", headers, w)
			}
			if p.clean != 1 || p.differing != 0 {
				t.Fatalf("%d headers: OnCompared saw clean=%d differing=%d, want one clean round", headers, p.clean, p.differing)
			}
		}
		want := map[int]int{0: 1, 20: 1, 1000: 32, 9000: store.NumRanges}[headers]
		if got := len(opener(t, p.log[0]).Sums); got != want {
			t.Fatalf("%d headers opened with %d sums, want %d", headers, got, want)
		}
	}
}

// opener returns the one item a round opens with: fingerprints of the
// root's children.
func opener(t *testing.T, env transport.Envelope) antientropy.Item {
	t.Helper()
	m, ok := env.Msg.(*antientropy.Reconcile)
	if !ok || len(m.Items) != 1 || m.Items[0].Depth != 0 || len(m.Items[0].Sums) == 0 {
		t.Fatalf("sent %+v, want a Reconcile of one depth-0 item of sums", env.Msg)
	}
	return m.Items[0]
}

// TestOneMissingObjectCostsOneRange: with one object missing on one side
// of a 10 000-header store, the exchange narrows to the object's range —
// every walk on both sides stays inside it — and repairs it in the same
// round for about the opener's digest bytes, whichever side lacks it.
func TestOneMissingObjectCostsOneRange(t *testing.T) {
	const slice, k = 1, 4
	keys := sliceKeys(slice, k, 10001)
	extra, keys := keys[10000], keys[:10000]
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
		// The opener's 256 sums, one level of sub-range sums and one
		// short list: the search costs what the opener does, plus a few
		// hundred bytes.
		if max := 8*store.NumRanges + 512; p.digest > max {
			t.Errorf("%s: the round charged %d digest bytes, want <= %d", holder, p.digest, max)
		}
		if p.differing != 2 || p.clean != 0 {
			t.Errorf("%s: OnCompared differing=%d clean=%d; want the range, then its one differing sub-range", holder, p.differing, p.clean)
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
			t.Errorf("%s: round after the repair sent %d messages (clean=%d), want the opener alone", holder, len(p.log), p.clean)
		}
	}
}

// TestBloomFalsePositiveVictimRepairsInOneRound: fp0000052 version 7,
// held by A alone, hid from the Bloom leg this exchange replaced — it
// false-positived against B's filter of its range under B's first salt
// — and waited for a full-header round. The descent is exact: one round
// repairs it, walks nothing outside its range and reads no value to test
// presence.
func TestBloomFalsePositiveVictimRepairsInOneRound(t *testing.T) {
	const slice, k, victim = 1, 4, "fp0000052"
	p := newPair(t, antientropy.Config{}, antientropy.Config{}, slice, k)
	load(t, sliceKeys(slice, k, 9000), p.sa, p.sb)
	if err := p.sa.Put(victim, 7, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	p.resetCounts()
	p.round(p.a)
	if val, _, ok, _ := p.sb.Store.Get(victim, 7); !ok || string(val) != "precious" {
		t.Fatalf("the round did not repair the victim: ok=%v val=%q", ok, val)
	}
	for _, st := range []*countingStore{p.sa, p.sb} {
		for _, set := range st.walked {
			if set != oneRange(rangeOf(victim, 7)) {
				t.Errorf("walked ranges %v, want only the victim's %d", set, rangeOf(victim, 7))
			}
		}
	}
	if g := p.sa.gets.Load() + p.sb.gets.Load(); g != 0 {
		t.Errorf("the round read %d values to test presence, want the index asked", g)
	}
}

// TestFullRoundAsksTheIndexNotTheDisk: a full-header reference round
// over thousands of headers repairs both directions without reading one
// value to test presence.
func TestFullRoundAsksTheIndexNotTheDisk(t *testing.T) {
	const slice, k = 1, 4
	cfg := antientropy.Config{WholeStore: true}
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

// TestEmptyMateFillsInMaxPushRounds: a mate with nothing gains at least
// MaxPush objects a round — one Push per message that settles a prefix,
// and a round may settle at more than one step of the descent — so n
// objects take at most ceil(n/MaxPush) rounds, whichever side opens
// them.
func TestEmptyMateFillsInMaxPushRounds(t *testing.T) {
	const slice, k, n, maxPush = 1, 4, 1000, 64
	for _, opener := range []string{"full", "empty"} {
		cfg := antientropy.Config{MaxPush: maxPush}
		p := newPair(t, cfg, cfg, slice, k)
		load(t, sliceKeys(slice, k, n), p.sa)
		initiator := p.a
		if opener == "empty" {
			initiator = p.b
		}
		rounds := 0
		for ; p.sb.Count() < n && rounds < 2*n/maxPush; rounds++ {
			before := p.sb.Count()
			p.round(initiator)
			if moved := p.sb.Count() - before; moved < min(maxPush, n-before) {
				t.Errorf("%s opens: round %d moved %d objects, want >= %d", opener, rounds+1, moved, min(maxPush, n-before))
			}
		}
		if want := (n + maxPush - 1) / maxPush; rounds > want || p.sb.Count() != n {
			t.Errorf("%s opens: the empty mate holds %d of %d after %d rounds, want all within %d", opener, p.sb.Count(), n, rounds, want)
		}
		t.Logf("%s opens: filled in %d rounds", opener, rounds)
	}
}

// TestKeyWithMoreVersionsThanMaxDigestConverges: a key cannot split, so
// its versions go as one list, sampled once there are more than a list
// holds (4096). Pairs missing versions on both sides still converge.
func TestKeyWithMoreVersionsThanMaxDigestConverges(t *testing.T) {
	const slice, k, key = 1, 4, "versions"
	p := newPair(t, antientropy.Config{}, antientropy.Config{}, slice, k)
	if p.slice[1] != int32(slicing.KeySlice(key, k)) {
		p.slice[1], p.slice[2] = slicing.KeySlice(key, k), slicing.KeySlice(key, k)
	}
	versions := func(from, to uint64) []store.Object {
		var objs []store.Object
		for v := from; v <= to; v++ {
			objs = append(objs, store.Object{Key: key, Version: v, Value: []byte("v")})
		}
		return objs
	}
	if err := p.sa.PutBatch(versions(1, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := p.sb.PutBatch(versions(11, 5005)); err != nil {
		t.Fatal(err)
	}
	for r := 0; p.sa.Count() != 5005 || p.sb.Count() != 5005; r++ {
		if r == 40 {
			t.Fatalf("after %d rounds a=%d b=%d versions, want 5005 each", r, p.sa.Count(), p.sb.Count())
		}
		p.round([]*antientropy.Protocol{p.a, p.b}[r%2])
	}
	p.resetCounts()
	p.round(p.a)
	if p.clean != 1 {
		t.Error("converged pair's next round was not clean")
	}
}

// racingStore runs after once, right after its range sums are first
// read: a write a data shard makes while a message is answered.
type racingStore struct {
	store.Store
	after func()
}

func (s *racingStore) RangeSums() store.RangeSums {
	sums := s.Store.RangeSums()
	if after := s.after; after != nil {
		s.after = nil
		after()
	}
	return sums
}

// TestWriteWhileAnsweringDescribesOnlyWalkedRanges: a put that lands in
// another range while B answers A's opener — after B read its range
// sums — is left to the next round. B describes only the range it walked,
// sends no empty list and no fingerprint of an empty prefix, so A pushes
// B nothing but the object B lacks.
func TestWriteWhileAnsweringDescribesOnlyWalkedRanges(t *testing.T) {
	const slice, k = 1, 4
	keys := sliceKeys(slice, k, 9100)
	extra, late := keys[9000], ""
	for _, key := range keys[9001:] {
		if rangeOf(key, 1) != rangeOf(extra, 1) {
			late = key
			break
		}
	}
	racing := &racingStore{Store: store.NewMemory()}
	p := newPairOn(antientropy.Config{}, antientropy.Config{}, slice, k, store.NewMemory(), racing)
	load(t, keys[:9000], p.sa, p.sb)
	load(t, []string{extra}, p.sa)
	racing.after = func() { load(t, []string{late}, racing.Store) }

	p.round(p.a)
	want := rangeOf(extra, 1)
	for _, env := range p.log {
		switch m := env.Msg.(type) {
		case *antientropy.Reconcile:
			if env.From != 2 {
				continue
			}
			for _, it := range m.Items {
				if lo, hi := store.PrefixRanges(int(it.Depth), it.Prefix); lo != want || hi != want+1 {
					t.Errorf("B described depth %d prefix %#x (ranges %d..%d), want only the walked range %d", it.Depth, it.Prefix, lo, hi-1, want)
				}
				if len(it.Sums) == 0 && len(it.Headers) == 0 {
					t.Errorf("B sent an empty list for depth %d prefix %#x", it.Depth, it.Prefix)
				}
				for i, s := range it.Sums {
					if s == 0 {
						t.Errorf("B sent an empty fingerprint for child %d of depth %d prefix %#x", i, it.Depth, it.Prefix)
					}
				}
			}
		case *antientropy.Push:
			if env.To == 2 && (len(m.Objects) != 1 || m.Objects[0].Key != extra) {
				t.Errorf("A pushed B %d objects, want %s alone", len(m.Objects), extra)
			}
		}
	}
	if _, _, ok, _ := p.sb.Store.Get(extra, 1); !ok {
		t.Fatal("the round did not repair the object B lacked")
	}
	p.round(p.a)
	if _, _, ok, _ := p.sa.Store.Get(late, 1); !ok {
		t.Fatal("the next round did not repair the late write")
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
			t.Fatalf("round after the foreign object was fingerprinted: %d messages, clean=%d, %d walks; want one clean opener",
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
