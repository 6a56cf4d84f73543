package antientropy

import (
	"context"
	"math/rand/v2"
	"testing"

	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
)

// placement puts one header on one or both sides of a pair.
type placement struct {
	key     string
	version uint64
	onA     bool
	onB     bool
}

// reconcileCase is a pair of stores and what was placed on them: the
// in-slice headers the repair must bring to both sides, and foreign
// headers it must leave where they are.
type reconcileCase struct {
	inSlice, foreign []placement
}

// caseKeys are the keys a case draws from: 192 of the pair's slice (1
// of 4), then 64 of another.
func caseKeys(t testing.TB) []string {
	return append(keysInSlice(t, 1, 4, 192), keysInSlice(t, 2, 4, 64)...)
}

// decodeCase turns bytes into a case, three per header: a key index
// into keys (foreign from 192 on), a version, and where it goes. A
// header named twice is on every side either names.
func decodeCase(keys []string, data []byte) reconcileCase {
	var c reconcileCase
	type at struct {
		list *[]placement
		i    int
	}
	seen := make(map[Header]at)
	for ; len(data) >= 3; data = data[3:] {
		h, foreign := Header{Key: keys[data[0]], Version: uint64(data[1]) + 1}, data[0] >= 192
		onA, onB := data[2]%4 != 2, data[2]%4 != 1 // 0: both, 3: nowhere
		if data[2]%4 == 3 {
			continue
		}
		if a, ok := seen[h]; ok {
			pl := &(*a.list)[a.i]
			pl.onA, pl.onB = pl.onA || onA, pl.onB || onB
			continue
		}
		list := &c.inSlice
		if foreign {
			list = &c.foreign
		}
		*list = append(*list, placement{key: h.Key, version: h.Version, onA: onA, onB: onB})
		seen[h] = at{list, len(*list) - 1}
	}
	return c
}

// run places the case on a pair of stores, runs rounds from alternating
// initiators until both sides fingerprint their slice alike, and checks
// that no Push carried a foreign object and that each side ends with
// every in-slice header and its own foreign ones alone.
func (c reconcileCase) run(t testing.TB, sa, sb store.Store) (rounds int) {
	t.Helper()
	h := newPairOn(Config{}, 1, 4, sa, sb)
	h.inspect = func(msg interface{}) {
		if push, ok := msg.(*Push); ok {
			for _, o := range push.Objects {
				if slicing.KeySlice(o.Key, 4) != 1 {
					t.Fatalf("pushed foreign object %s/%d", o.Key, o.Version)
				}
			}
		}
	}
	for _, side := range []struct {
		st store.Store
		on func(placement) bool
	}{{sa, func(p placement) bool { return p.onA }}, {sb, func(p placement) bool { return p.onB }}} {
		var objs []store.Object
		for _, p := range append(append([]placement(nil), c.inSlice...), c.foreign...) {
			if side.on(p) {
				objs = append(objs, store.Object{Key: p.key, Version: p.version, Value: []byte(p.key)})
			}
		}
		if err := side.st.PutBatch(objs); err != nil {
			t.Fatal(err)
		}
	}

	bound := 6 + 2*len(c.inSlice)/h.a.cfg.MaxPush
	for rounds = 0; h.a.localSums() != h.b.localSums(); rounds++ {
		if rounds == bound {
			t.Fatalf("not converged after %d rounds: a=%d b=%d objects", rounds, sa.Count(), sb.Count())
		}
		initiator := h.a
		if rounds%2 == 1 {
			initiator = h.b
		}
		initiator.Tick(context.Background())
		h.deliverAll()
	}
	for _, p := range c.inSlice {
		for _, st := range []store.Store{sa, sb} {
			if _, _, ok, _ := st.Get(p.key, p.version); !ok {
				t.Fatalf("after %d rounds a side lacks in-slice %s/%d", rounds, p.key, p.version)
			}
		}
	}
	for _, p := range c.foreign {
		for _, side := range []struct {
			st   store.Store
			want bool
		}{{sa, p.onA}, {sb, p.onB}} {
			if _, _, ok, _ := side.st.Get(p.key, p.version); ok != side.want {
				t.Fatalf("foreign %s/%d held=%v, want %v", p.key, p.version, ok, side.want)
			}
		}
	}
	return rounds
}

// TestReconcileProperty: seeded pairs of a memory and a log store, with
// headers missing on either side, keys with many versions and foreign
// objects on both, reach equal fingerprints of their slice — every
// in-slice header on both sides, no foreign object moved.
func TestReconcileProperty(t *testing.T) {
	keys := caseKeys(t)
	for seed := uint64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		data := make([]byte, 3*rng.IntN(1500))
		for i := range data {
			data[i] = byte(rng.UintN(256))
		}
		if seed%4 == 0 { // a few keys with many versions each
			for i := 0; i < len(data); i += 3 {
				data[i] %= 4
			}
		}
		lg, err := store.OpenLog(t.TempDir(), store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rounds := decodeCase(keys, data).run(t, store.NewMemory(), lg)
		lg.Close()
		t.Logf("seed %d: %d headers, converged in %d rounds", seed, len(data)/3, rounds)
	}
}

// FuzzReconcile builds two stores and their differences from the fuzzed
// bytes (decodeCase) and runs repair rounds until the pair agrees: it
// must, in a bounded number of rounds, without pushing a foreign object.
// The seeds, here and under testdata/fuzz, replay on every go test.
func FuzzReconcile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1})            // one header on A alone
	f.Add([]byte{0, 0, 2, 200, 0, 1}) // one on B alone, one foreign on A
	f.Add([]byte{5, 1, 0, 5, 2, 1, 5, 3, 2, 200, 4, 2})
	seq := make([]byte, 0, 3*150)
	for i := 0; i < 150; i++ {
		seq = append(seq, byte(i), byte(i%3), byte(i%4))
	}
	f.Add(seq)
	keys := caseKeys(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*400 {
			data = data[:3*400]
		}
		decodeCase(keys, data).run(t, store.NewMemory(), store.NewMemory())
	})
}
