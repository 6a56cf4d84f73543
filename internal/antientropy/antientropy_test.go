package antientropy

import (
	"context"
	"fmt"
	"testing"

	"dataflasks/internal/sim"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// pairHarness wires two anti-entropy protocols with synchronous
// delivery.
type pairHarness struct {
	a, b   *Protocol
	sa, sb store.Store
	queue  []transport.Envelope
	sentA  int
	sentB  int
}

func newPair(t *testing.T, cfg Config, slice int32, k int) *pairHarness {
	t.Helper()
	h := &pairHarness{sa: store.NewMemory(), sb: store.NewMemory()}
	mk := func(self, peer transport.NodeID, st store.Store, counter *int) *Protocol {
		return New(cfg, Env{
			Store: st,
			Send: transport.SenderFunc(func(_ context.Context, to transport.NodeID, msg interface{}) error {
				*counter++
				h.queue = append(h.queue, transport.Envelope{From: self, To: to, Msg: msg})
				return nil
			}),
			Partner: func() (transport.NodeID, bool) { return peer, true },
			Slice:   func() int32 { return slice },
			Slices:  func() int { return k },
		}, sim.RNG(1, uint64(self)))
	}
	h.a = mk(1, 2, h.sa, &h.sentA)
	h.b = mk(2, 1, h.sb, &h.sentB)
	return h
}

func (h *pairHarness) deliverAll() {
	for len(h.queue) > 0 {
		env := h.queue[0]
		h.queue = h.queue[1:]
		if env.To == 1 {
			h.a.Handle(context.Background(), env.From, env.Msg)
		} else {
			h.b.Handle(context.Background(), env.From, env.Msg)
		}
	}
}

// keysInSlice returns n distinct keys mapping to the slice.
func keysInSlice(t *testing.T, slice int32, k, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		key := fmt.Sprintf("obj%06d", i)
		if slicing.KeySlice(key, k) == slice {
			out = append(out, key)
		}
	}
	if len(out) < n {
		t.Fatal("not enough keys")
	}
	return out
}

func TestExchangeSyncsBothWays(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{}, slice, k)
	keys := keysInSlice(t, slice, k, 4)

	_ = h.sa.Put(keys[0], 1, []byte("only-a"))
	_ = h.sa.Put(keys[1], 2, []byte("both"))
	_ = h.sb.Put(keys[1], 2, []byte("both"))
	_ = h.sb.Put(keys[2], 1, []byte("only-b"))

	h.a.Tick(context.Background())
	h.deliverAll()

	for _, st := range []store.Store{h.sa, h.sb} {
		for _, key := range keys[:3] {
			if _, _, ok, _ := st.Get(key, store.Latest); !ok {
				t.Errorf("store missing %q after exchange", key)
			}
		}
	}
	if got, _, _, _ := h.sb.Get(keys[0], 1); string(got) != "only-a" {
		t.Errorf("b's copy = %q", got)
	}
}

func TestExchangeSkipsForeignKeys(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{}, slice, k)
	// Find a key NOT in the slice; A holds it (stale from a slice
	// change).
	var foreign string
	for i := 0; ; i++ {
		key := fmt.Sprintf("foreign%d", i)
		if slicing.KeySlice(key, k) != slice {
			foreign = key
			break
		}
	}
	_ = h.sa.Put(foreign, 1, []byte("stale"))
	h.a.Tick(context.Background())
	h.deliverAll()
	if _, _, ok, _ := h.sb.Get(foreign, 1); ok {
		t.Error("foreign key replicated")
	}
}

// TestPushWithInvalidObjectStillStoresRest covers the Push filter: an
// object CheckObject refuses (which no honest store could have produced)
// never joins the batch, so it cannot fail the valid ones with it.
func TestPushWithInvalidObjectStillStoresRest(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{}, slice, k)
	keys := keysInSlice(t, slice, k, 2)
	h.b.Handle(context.Background(), 1, &Push{Objects: []store.Object{
		{Key: keys[0], Version: store.Latest, Value: []byte("bogus")},
		{Key: keys[1], Version: 3, Value: []byte("good")},
	}})
	if val, _, ok, _ := h.sb.Get(keys[1], 3); !ok || string(val) != "good" {
		t.Errorf("valid object lost to the invalid one: %q %v", val, ok)
	}
	if h.sb.Count() != 1 {
		t.Errorf("Count = %d, want 1 (invalid object dropped)", h.sb.Count())
	}
}

func TestExchangeIgnoresOtherSlicesDigest(t *testing.T) {
	const k = 4
	h := newPair(t, Config{}, 1, k)
	key := keysInSlice(t, 1, k, 1)[0]
	_ = h.sa.Put(key, 1, []byte("x"))
	// B receives a digest claiming another slice: must be ignored.
	h.b.Handle(context.Background(), 1, &Digest{Slice: 2, Headers: []Header{{Key: key, Version: 1}}})
	h.deliverAll()
	if _, _, ok, _ := h.sb.Get(key, 1); ok {
		t.Error("cross-slice digest caused replication")
	}
}

func TestMaxPushBoundsOneExchange(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{MaxPush: 3}, slice, k)
	keys := keysInSlice(t, slice, k, 10)
	for i, key := range keys {
		_ = h.sa.Put(key, uint64(i+1), []byte("bulk"))
	}
	h.a.Tick(context.Background())
	h.deliverAll()
	if got := h.sb.Count(); got != 3 {
		t.Fatalf("first exchange moved %d objects, want 3", got)
	}
	// Repeated rounds converge.
	for i := 0; i < 5; i++ {
		h.a.Tick(context.Background())
		h.deliverAll()
	}
	if got := h.sb.Count(); got != len(keys) {
		t.Fatalf("after 6 exchanges b has %d of %d", got, len(keys))
	}
}

func TestEvictForeign(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{EvictForeign: true}, slice, k)
	mine := keysInSlice(t, slice, k, 1)[0]
	var foreign string
	for i := 0; ; i++ {
		key := fmt.Sprintf("old%d", i)
		if slicing.KeySlice(key, k) != slice {
			foreign = key
			break
		}
	}
	_ = h.sa.Put(mine, 1, []byte("keep"))
	_ = h.sa.Put(foreign, 1, []byte("drop"))
	h.a.Tick(context.Background())
	h.deliverAll()
	if _, _, ok, _ := h.sa.Get(mine, 1); !ok {
		t.Error("evicted an in-slice object")
	}
	if _, _, ok, _ := h.sa.Get(foreign, 1); ok {
		t.Error("foreign object survived eviction")
	}
}

func TestNoPartnerNoTraffic(t *testing.T) {
	sent := 0
	p := New(Config{}, Env{
		Store: store.NewMemory(),
		Send: transport.SenderFunc(func(context.Context, transport.NodeID, interface{}) error {
			sent++
			return nil
		}),
		Partner: func() (transport.NodeID, bool) { return 0, false },
		Slice:   func() int32 { return 0 },
		Slices:  func() int { return 1 },
	}, sim.RNG(1, 1))
	p.Tick(context.Background())
	if sent != 0 {
		t.Errorf("sent %d messages without a partner", sent)
	}
}

func TestHandleForeignMessage(t *testing.T) {
	h := newPair(t, Config{}, 0, 1)
	if h.a.Handle(context.Background(), 2, "garbage") {
		t.Error("claimed a foreign message")
	}
}

// TestBothSidesSend: one round has each mate send through its Env.Send,
// the one place a node counts protocol messages.
func TestBothSidesSend(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{}, slice, k)
	key := keysInSlice(t, slice, k, 1)[0]
	_ = h.sa.Put(key, 1, []byte("x"))
	h.a.Tick(context.Background())
	h.deliverAll()
	if h.sentA == 0 || h.sentB == 0 {
		t.Errorf("sends: a=%d b=%d", h.sentA, h.sentB)
	}
}

func TestDigestSamplesLargeStores(t *testing.T) {
	const slice, k = 0, 1 // every key in slice
	h := newPair(t, Config{MaxDigest: 16}, slice, k)
	for i := 0; i < 100; i++ {
		_ = h.sa.Put(fmt.Sprintf("k%03d", i), 1, nil)
	}
	d := h.a.digest(store.AllRanges())
	if len(d) != 16 {
		t.Fatalf("digest size = %d, want 16", len(d))
	}
	seen := map[string]bool{}
	for _, hd := range d {
		if seen[hd.Key] {
			t.Fatalf("digest has duplicate %q", hd.Key)
		}
		seen[hd.Key] = true
	}
}
