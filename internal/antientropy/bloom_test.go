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

func TestFilterNoFalseNegatives(t *testing.T) {
	f := NewFilter(1000)
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("key%06d", i), uint64(i))
	}
	for i := 0; i < 1000; i++ {
		if !f.Contains(fmt.Sprintf("key%06d", i), uint64(i)) {
			t.Fatalf("false negative for key%06d", i)
		}
	}
}

func TestFilterFalsePositiveRate(t *testing.T) {
	const n = 2000
	f := NewFilter(n)
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprintf("key%06d", i), 1)
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Contains(fmt.Sprintf("absent%06d", i), 1) {
			fp++
		}
	}
	// Sized for ~1%; 3% is a generous deterministic bound.
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Fatalf("false positive rate %.3f, want <= 0.03", rate)
	}
}

func TestFilterEmptyContainsNothing(t *testing.T) {
	var zero Filter
	if zero.Contains("k", 1) {
		t.Error("zero filter claims membership")
	}
	f := NewFilter(0)
	if f.Contains("k", 1) {
		t.Error("empty filter claims membership")
	}
}

func TestFilterDistinguishesVersions(t *testing.T) {
	f := NewFilter(64)
	f.Add("key", 1)
	if f.Contains("key", 2) {
		t.Skip("version 2 landed on version 1's bits (possible but ~1%)")
	}
}

// TestBloomExchangeSyncsBothWays is the Bloom-round analogue of
// TestExchangeSyncsBothWays: one Summary/SummaryReply round with
// direct pushes must repair both directions without any Pull leg.
func TestBloomExchangeSyncsBothWays(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{FullEvery: -1}, slice, k) // Bloom only
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
				t.Errorf("store missing %q after Bloom exchange", key)
			}
		}
	}
	if got, _, _, _ := h.sb.Get(keys[0], 1); string(got) != "only-a" {
		t.Errorf("b's copy = %q", got)
	}
}

// TestFilterSaltZeroIsLegacyFamily pins wire compatibility: a filter
// that arrives without a salt (older peer, zero value) must hash
// exactly like the pre-salt implementation, i.e. identically to
// NewFilter's output.
func TestFilterSaltZeroIsLegacyFamily(t *testing.T) {
	a, b := NewFilter(256), NewFilterSalted(256, 0)
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("key%06d", i)
		a.Add(key, uint64(i+1))
		b.Add(key, uint64(i+1))
	}
	for i := range a.Bits {
		if a.Bits[i] != b.Bits[i] {
			t.Fatalf("salt-0 filter diverged from legacy filter at word %d", i)
		}
	}
}

// TestBloomFalsePositiveRepairedByResalting is the seeded regression
// test for per-summary filter salting. Unsalted, whether a header
// false-positives against a given object set is a pure function of the
// keys — the SAME headers are skipped on every Bloom round and only
// the periodic full-header round can repair them. With a fresh salt
// per summary, round 2 draws an independent hash family, so a header
// skipped in round 1 is repaired by the very next Bloom round: here
// FullEvery is -1 (no full-header fallback at all) and the victim
// still converges.
func TestBloomFalsePositiveRepairedByResalting(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{FullEvery: -1}, slice, k) // Bloom only

	base := keysInSlice(t, slice, k, 48)
	for i, key := range base {
		_ = h.sa.Put(key, uint64(i+1), []byte("base"))
	}

	// A's summary salts come from its deterministic rng (seeded like
	// newPair seeds it); clone the stream to know round 1's and round
	// 2's filters in advance, and pick a victim header that
	// false-positives under the first salt but not the second.
	saltRNG := sim.RNG(1, 1)
	salt1, salt2 := saltRNG.Uint64(), saltRNG.Uint64()
	buildFilter := func(salt uint64) *Filter {
		f := NewFilterSalted(h.sa.Count(), salt)
		_ = h.sa.ForEachIn(store.AllRanges(), func(key string, version uint64) bool {
			f.Add(key, version)
			return true
		})
		return f
	}
	f1, f2 := buildFilter(salt1), buildFilter(salt2)
	const victimVersion = 7
	victim := ""
	for i := 0; i < 2_000_000 && victim == ""; i++ {
		key := fmt.Sprintf("fp%07d", i)
		if slicing.KeySlice(key, k) != slice {
			continue
		}
		if f1.Contains(key, victimVersion) && !f2.Contains(key, victimVersion) {
			victim = key
		}
	}
	if victim == "" {
		t.Fatal("no deterministic false positive found — filter parameters changed?")
	}
	_ = h.sb.Put(victim, victimVersion, []byte("precious"))

	// Round 1: B tests the victim against A's salt1 filter, wrongly
	// sees "A has it", pushes nothing.
	h.a.Tick(context.Background())
	h.deliverAll()
	if _, _, ok, _ := h.sa.Get(victim, victimVersion); ok {
		t.Fatal("round 1 repaired the victim — it should false-positive under salt1")
	}
	// Round 2: a fresh salt, an independent hash family — the victim
	// no longer hides, and a plain Bloom round repairs it.
	h.a.Tick(context.Background())
	h.deliverAll()
	if val, _, ok, _ := h.sa.Get(victim, victimVersion); !ok || string(val) != "precious" {
		t.Fatalf("re-salted Bloom round did not repair the false positive: ok=%v val=%q", ok, val)
	}
}

// TestMaxPushBytesBoundsOneExchange: the byte budget cuts a push off
// mid-list, and later rounds move the rest.
func TestMaxPushBytesBoundsOneExchange(t *testing.T) {
	const slice, k = 1, 4
	h := newPair(t, Config{FullEvery: -1, MaxPushBytes: 300}, slice, k)
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
	h := newPair(t, Config{FullEvery: -1, MaxPushBytes: 64}, slice, k)
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
	h := newPair(t, Config{FullEvery: -1, RateBytesPerRound: 150}, slice, k)
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
	sb := store.NewMemory()
	var queue []transport.Envelope
	corrupt := 0
	mk := func(self, peer transport.NodeID, st store.Store, onCorrupt func(int)) *Protocol {
		return New(Config{FullEvery: -1}, Env{
			Store: st,
			Send: transport.SenderFunc(func(_ context.Context, to transport.NodeID, msg interface{}) error {
				queue = append(queue, transport.Envelope{From: self, To: to, Msg: msg})
				return nil
			}),
			Partner:   func() (transport.NodeID, bool) { return peer, true },
			Slice:     func() int32 { return slice },
			Slices:    func() int { return k },
			OnCorrupt: onCorrupt,
		}, sim.RNG(1, uint64(self)))
	}
	a := mk(1, 2, lg, func(n int) { corrupt += n })
	bp := mk(2, 1, sb, nil)

	a.Tick(context.Background())
	for len(queue) > 0 {
		env := queue[0]
		queue = queue[1:]
		if env.To == 1 {
			a.Handle(context.Background(), env.From, env.Msg)
		} else {
			bp.Handle(context.Background(), env.From, env.Msg)
		}
	}

	if corrupt == 0 {
		t.Error("OnCorrupt never fired for the rotted record")
	}
	if _, _, ok, _ := sb.Get(victim, 2); ok {
		t.Error("corrupt object was propagated to the peer")
	}
	for i, key := range keys {
		if key == victim {
			continue
		}
		if v, _, ok, _ := sb.Get(key, uint64(i+1)); !ok || string(v) != string(val) {
			t.Errorf("healthy object %q not replicated: ok=%v", key, ok)
		}
	}
}

// TestFullEveryCadence pins the round schedule: with FullEvery=3 rounds
// 1-2 ask for a Bloom exchange and round 3 for full headers — as the
// Full mark on the opening Sums, or, for a WholeStore node, as the
// Summary or Digest it opens with.
func TestFullEveryCadence(t *testing.T) {
	for _, wholeStore := range []bool{false, true} {
		var sent []interface{}
		p := New(Config{FullEvery: 3, WholeStore: wholeStore}, Env{
			Store: store.NewMemory(),
			Send: transport.SenderFunc(func(_ context.Context, _ transport.NodeID, msg interface{}) error {
				sent = append(sent, msg)
				return nil
			}),
			Partner: func() (transport.NodeID, bool) { return 2, true },
			Slice:   func() int32 { return 0 },
			Slices:  func() int { return 1 },
		}, sim.RNG(1, 1))
		for i := 0; i < 3; i++ {
			p.Tick(context.Background())
		}
		if len(sent) != 3 {
			t.Fatalf("WholeStore=%v: sent %d messages, want 3", wholeStore, len(sent))
		}
		for i, msg := range sent {
			wantFull := i == 2
			var full, ok bool
			switch m := msg.(type) {
			case *Sums:
				full, ok = m.Full, !wholeStore
			case *Summary:
				full, ok = false, wholeStore
			case *Digest:
				full, ok = true, wholeStore
			}
			if !ok || full != wantFull {
				t.Errorf("WholeStore=%v round %d sent %T (full=%v), want full=%v", wholeStore, i+1, msg, full, wantFull)
			}
		}
	}
}

// TestDigestBytesAccounting: Bloom summaries must report far fewer
// digest bytes than full headers for the same store. WholeStore, or the
// converged pair would spend its sums and nothing else either way.
func TestDigestBytesAccounting(t *testing.T) {
	const slice, k = 1, 4
	run := func(fullEvery int) int {
		bytes := 0
		h := newPair(t, Config{FullEvery: fullEvery, WholeStore: true}, slice, k)
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
	full := run(1)
	bloom := run(-1)
	if bloom == 0 || full == 0 {
		t.Fatalf("accounting hooks silent: full=%d bloom=%d", full, bloom)
	}
	if bloom*5 > full {
		t.Fatalf("bloom digest bytes %d not >= 5x smaller than full %d", bloom, full)
	}
}
