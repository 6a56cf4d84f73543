package antientropy

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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
	// inspect, when set, sees every message before it is delivered.
	inspect func(msg interface{})
}

func newPair(t *testing.T, cfg Config, slice int32, k int) *pairHarness {
	t.Helper()
	return newPairOn(cfg, slice, k, store.NewMemory(), store.NewMemory())
}

// newPairOn is newPair over the given stores.
func newPairOn(cfg Config, slice int32, k int, sa, sb store.Store) *pairHarness {
	h := &pairHarness{sa: sa, sb: sb}
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
		if h.inspect != nil {
			h.inspect(env.Msg)
		}
		if env.To == 1 {
			h.a.Handle(context.Background(), env.From, env.Msg)
		} else {
			h.b.Handle(context.Background(), env.From, env.Msg)
		}
	}
}

// keysInSlice returns n distinct keys mapping to the slice.
func keysInSlice(t testing.TB, slice int32, k, n int) []string {
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
	// B receives a header list claiming another slice: must be ignored.
	h.b.Handle(context.Background(), 1, &Reconcile{Slice: 2, Items: []Item{{Headers: []Header{{Key: key, Version: 1}}}}})
	h.deliverAll()
	if _, _, ok, _ := h.sb.Get(key, 1); ok || h.sentB != 0 {
		t.Errorf("cross-slice list caused replication (sent %d)", h.sentB)
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

// TestMaxPushBytesBoundsOneExchange: the byte budget cuts a push off
// mid-list, and later rounds move the rest.
func TestMaxPushBytesBoundsOneExchange(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{MaxPushBytes: 300}, slice, k)
	keys := keysInSlice(t, slice, k, 10)
	val := make([]byte, 100)
	for i, key := range keys {
		_ = h.sa.Put(key, uint64(i+1), val)
	}
	h.a.Tick(context.Background())
	h.deliverAll()
	// 100-byte values against a 300-byte budget: exactly 3 ship.
	if got := h.sb.Count(); got != 3 {
		t.Fatalf("first exchange moved %d objects, want 3", got)
	}
	for i := 0; i < 5; i++ {
		h.a.Tick(context.Background())
		h.deliverAll()
	}
	if got := h.sb.Count(); got != len(keys) {
		t.Fatalf("after 6 exchanges b has %d of %d", got, len(keys))
	}
}

// TestOversizedValueStillShips: one value above MaxPushBytes must ship
// alone rather than being starved forever.
func TestOversizedValueStillShips(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{MaxPushBytes: 64}, slice, k)
	key := keysInSlice(t, slice, k, 1)[0]
	_ = h.sa.Put(key, 1, make([]byte, 500))
	h.a.Tick(context.Background())
	h.deliverAll()
	if val, _, ok, _ := h.sb.Get(key, 1); !ok || len(val) != 500 {
		t.Fatalf("oversized value not shipped: ok=%v len=%d", ok, len(val))
	}
}

// TestRateLimiterBoundsPerRoundBytes: with a byte budget per round,
// each exchange ships at most the refill (plus one object of
// overshoot), and convergence still happens across rounds.
func TestRateLimiterBoundsPerRoundBytes(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{RateBytesPerRound: 150}, slice, k)
	keys := keysInSlice(t, slice, k, 12)
	val := make([]byte, 100)
	for i, key := range keys {
		_ = h.sa.Put(key, uint64(i+1), val)
	}
	prev := 0
	for round := 1; round <= 40 && h.sb.Count() < len(keys); round++ {
		h.a.Tick(context.Background())
		h.b.Tick(context.Background()) // refill B's bucket too (it has nothing to push)
		h.deliverAll()
		moved := h.sb.Count() - prev
		prev = h.sb.Count()
		// 150 B/round against 100-B values: at most 2 objects/round
		// (one token overshoot), never a burst-drain of the backlog.
		if moved > 2+4 { // +4: the initial 4-round burst allowance
			t.Fatalf("round %d moved %d objects despite the rate cap", round, moved)
		}
	}
	if h.sb.Count() != len(keys) {
		t.Fatalf("rate-limited repair never converged: %d of %d", h.sb.Count(), len(keys))
	}
}

// TestCorruptRecordNotPropagated is the acceptance test for CRC-
// verified streaming: corrupt one byte of a log-segment record on the
// serving node and the object is skipped — reported via OnCorrupt —
// while every healthy object still replicates.
func TestCorruptRecordNotPropagated(t *testing.T) {
	const slice, k = 1, 4
	dir := t.TempDir()
	lg, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer lg.Close()

	keys := keysInSlice(t, slice, k, 3)
	val := []byte("0123456789abcdef")
	victim := keys[1]
	// Equal key lengths keep record offsets computable.
	for i, key := range keys {
		if len(key) != len(keys[0]) {
			t.Fatalf("test needs equal-length keys, got %q vs %q", key, keys[0])
		}
		if err := lg.Put(key, uint64(i+1), val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Record layout: u32 len | u32 crc | u8 typ | u64 ver | u16 klen |
	// key | value. Flip a value byte of record 1 (the victim).
	recLen := 8 + 11 + len(keys[0]) + len(val)
	off := int64(recLen + 8 + 11 + len(victim) + 5)
	segs, globErr := filepath.Glob(filepath.Join(dir, "*.seg"))
	if globErr != nil || len(segs) != 1 {
		t.Fatalf("segments: %v err=%v", segs, globErr)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	b := []byte{0}
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatalf("read: %v", err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	f.Close()

	// A serves from the corrupted log; B is a fresh empty mate.
	h := newPairOn(Config{}, slice, k, lg, store.NewMemory())
	corrupt := 0
	h.a.env.OnCorrupt = func(n int) { corrupt += n }
	h.a.Tick(context.Background())
	h.deliverAll()

	if corrupt == 0 {
		t.Error("OnCorrupt never fired for the rotted record")
	}
	if _, _, ok, _ := h.sb.Get(victim, 2); ok {
		t.Error("corrupt object was propagated to the peer")
	}
	for i, key := range keys {
		if key == victim {
			continue
		}
		if v, _, ok, _ := h.sb.Get(key, uint64(i+1)); !ok || string(v) != string(val) {
			t.Errorf("healthy object %q not replicated: ok=%v", key, ok)
		}
	}
}

// TestDigestBytesAccounting: between converged mates a ranged round must
// report far fewer digest bytes than the full-header reference's list of
// the same store.
func TestDigestBytesAccounting(t *testing.T) {
	const slice, k = 1, 4
	run := func(wholeStore bool) int {
		bytes := 0
		h := newPair(t, Config{WholeStore: wholeStore}, slice, k)
		h.a.env.OnDigestBytes = func(n int) { bytes += n }
		h.b.env.OnDigestBytes = func(n int) { bytes += n }
		for i, key := range keysInSlice(t, slice, k, 200) {
			_ = h.sa.Put(key, uint64(i+1), []byte("v"))
			_ = h.sb.Put(key, uint64(i+1), []byte("v"))
		}
		h.a.Tick(context.Background())
		h.deliverAll()
		return bytes
	}
	full := run(true)
	ranged := run(false)
	if ranged == 0 || full == 0 {
		t.Fatalf("accounting hooks silent: full=%d ranged=%d", full, ranged)
	}
	if ranged*5 > full {
		t.Fatalf("ranged digest bytes %d not >= 5x smaller than full %d", ranged, full)
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

// TestDigestSamplesLargeStores: a header list longer than maxDigest —
// here the full-header reference's opener — is a uniform sample of
// maxDigest distinct headers.
func TestDigestSamplesLargeStores(t *testing.T) {
	const slice, k = 0, 1 // every key in slice
	h := newPair(t, Config{WholeStore: true}, slice, k)
	objs := make([]store.Object, maxDigest+500)
	for i := range objs {
		objs[i] = store.Object{Key: fmt.Sprintf("k%05d", i), Version: 1}
	}
	if err := h.sa.PutBatch(objs); err != nil {
		t.Fatal(err)
	}
	h.a.Tick(context.Background())
	d := h.queue[0].Msg.(*Reconcile).Items[0].Headers
	if len(d) != maxDigest {
		t.Fatalf("digest size = %d, want %d", len(d), maxDigest)
	}
	seen := map[string]bool{}
	for _, hd := range d {
		if seen[hd.Key] {
			t.Fatalf("digest has duplicate %q", hd.Key)
		}
		seen[hd.Key] = true
	}
}
