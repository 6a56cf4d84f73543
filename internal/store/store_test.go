package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
)

// engines returns a fresh instance of every Store implementation; the
// whole suite runs against each.
func engines(t *testing.T) map[string]Store {
	t.Helper()
	lg, err := OpenLog(t.TempDir(), LogOptions{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return map[string]Store{
		"memory": NewMemory(),
		"log":    lg,
	}
}

// persistentEngines returns a reopenable factory per durable engine, so
// recovery tests run against each.
func persistentEngines() map[string]func(dir string) (Store, error) {
	return map[string]func(dir string) (Store, error){
		"log": func(dir string) (Store, error) { return OpenLog(dir, LogOptions{Fsync: true}) },
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for _, in := range []struct {
				key   string
				value []byte
			}{
				{"k", []byte("v1")},
				{string([]byte{0, 1, 2, '/', '\\', 0xff}), []byte{0, 255, 128, 7}}, // keys and values are bytes, not text
			} {
				if err := s.Put(in.key, 1, in.value); err != nil {
					t.Fatalf("Put(%q): %v", in.key, err)
				}
				val, ver, ok, err := s.Get(in.key, 1)
				if err != nil || !ok {
					t.Fatalf("Get(%q): ok=%v err=%v", in.key, ok, err)
				}
				if ver != 1 || !bytes.Equal(val, in.value) {
					t.Fatalf("Get(%q) = (%q, v%d)", in.key, val, ver)
				}
			}
		})
	}
}

func TestStoreLatestResolution(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for _, v := range []uint64{3, 1, 7, 5} { // out of order
				if err := s.Put("k", v, []byte{byte(v)}); err != nil {
					t.Fatalf("Put v%d: %v", v, err)
				}
			}
			val, ver, ok, err := s.Get("k", Latest)
			if err != nil || !ok {
				t.Fatalf("Get latest: ok=%v err=%v", ok, err)
			}
			if ver != 7 || val[0] != 7 {
				t.Fatalf("latest = v%d (%v), want v7", ver, val)
			}
		})
	}
}

func TestStoreVersionsSorted(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for _, v := range []uint64{9, 2, 5} {
				_ = s.Put("k", v, nil)
			}
			vs, err := s.Versions("k")
			if err != nil {
				t.Fatal(err)
			}
			want := []uint64{2, 5, 9}
			if len(vs) != 3 {
				t.Fatalf("Versions = %v", vs)
			}
			for i := range want {
				if vs[i] != want[i] {
					t.Fatalf("Versions = %v, want %v", vs, want)
				}
			}
		})
	}
}

func TestStoreMissing(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if _, _, ok, err := s.Get("ghost", 1); ok || err != nil {
				t.Errorf("missing key: ok=%v err=%v", ok, err)
			}
			if _, _, ok, _ := s.Get("ghost", Latest); ok {
				t.Error("missing key latest: ok")
			}
			_ = s.Put("k", 2, nil)
			if _, _, ok, _ := s.Get("k", 1); ok {
				t.Error("missing version reported present")
			}
			vs, err := s.Versions("ghost")
			if err != nil || vs != nil {
				t.Errorf("Versions(ghost) = %v, %v", vs, err)
			}
		})
	}
}

func TestStoreIdempotentPut(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			_ = s.Put("k", 1, []byte("original"))
			if err := s.Put("k", 1, []byte("different")); err != nil {
				t.Fatalf("re-put errored: %v", err)
			}
			val, _, _, _ := s.Get("k", 1)
			if string(val) != "original" {
				t.Errorf("re-put overwrote: %q", val)
			}
			if s.Count() != 1 {
				t.Errorf("Count = %d after re-put", s.Count())
			}
		})
	}
}

// hugeValue is one byte over MaxValueLen, for the tests that probe the
// bound. It is allocated once and kept, and no check reads its bytes, so
// the gigabyte stays untouched zero pages.
var hugeValue = sync.OnceValue(func() []byte { return make([]byte, MaxValueLen+1) })

// deleteOne is a DeleteBatch of one item.
func deleteOne(s Store, key string, version uint64) (bool, error) {
	existed, err := s.DeleteBatch([]Deletion{{Key: key, Version: version}})
	return existed[0], err
}

func TestStoreDelete(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			_ = s.Put("k", 1, []byte("a"))
			_ = s.Put("k", 2, []byte("b"))
			if existed, err := deleteOne(s, "k", 1); err != nil || !existed {
				t.Fatalf("delete present version: existed=%v err=%v", existed, err)
			}
			if _, _, ok, _ := s.Get("k", 1); ok {
				t.Error("deleted version still present")
			}
			if _, _, ok, _ := s.Get("k", 2); !ok {
				t.Error("sibling version vanished")
			}
			if existed, err := deleteOne(s, "k", 1); err != nil || existed {
				t.Errorf("double delete: existed=%v err=%v", existed, err)
			}
			if existed, err := deleteOne(s, "ghost", 1); err != nil || existed {
				t.Errorf("delete missing key: existed=%v err=%v", existed, err)
			}
			if s.Count() != 1 {
				t.Errorf("Count = %d, want 1", s.Count())
			}
		})
	}
}

// TestStoreDeleteLatest pins the Latest deletion semantics: it
// resolves to the newest stored version, mirroring Get, instead of
// being a silent no-op (Latest is never a stored version).
func TestStoreDeleteLatest(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			_ = s.Put("k", 2, []byte("old"))
			_ = s.Put("k", 5, []byte("new"))
			if _, err := deleteOne(s, "k", Latest); err != nil {
				t.Fatalf("delete Latest: %v", err)
			}
			if _, _, ok, _ := s.Get("k", 5); ok {
				t.Fatal("newest version survived the Latest delete")
			}
			if val, _, ok, _ := s.Get("k", 2); !ok || string(val) != "old" {
				t.Fatalf("older version lost: %q %v", val, ok)
			}
			if _, err := deleteOne(s, "k", Latest); err != nil {
				t.Fatalf("second Latest delete: %v", err)
			}
			if s.Count() != 0 {
				t.Fatalf("Count = %d after deleting every version", s.Count())
			}
			if _, err := deleteOne(s, "k", Latest); err != nil {
				t.Errorf("Latest delete on empty key errored: %v", err)
			}
			if _, err := deleteOne(s, "ghost", Latest); err != nil {
				t.Errorf("Latest delete on missing key errored: %v", err)
			}
		})
	}
}

func TestStorePutBatch(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			_ = s.Put("pre", 1, []byte("existing"))
			batch := []Object{
				{Key: "a", Version: 1, Value: []byte("a1")},
				{Key: "a", Version: 2, Value: []byte("a2")},
				{Key: "b", Version: 7, Value: []byte("b7")},
				{Key: "a", Version: 1, Value: []byte("dup-in-batch")},
				{Key: "pre", Version: 1, Value: []byte("dup-existing")},
			}
			if err := s.PutBatch(batch); err != nil {
				t.Fatalf("PutBatch: %v", err)
			}
			if s.Count() != 4 {
				t.Fatalf("Count = %d, want 4 (dups skipped)", s.Count())
			}
			for _, want := range []struct {
				key string
				ver uint64
				val string
			}{
				{"a", 1, "a1"}, {"a", 2, "a2"}, {"b", 7, "b7"}, {"pre", 1, "existing"},
			} {
				val, _, ok, err := s.Get(want.key, want.ver)
				if err != nil || !ok || string(val) != want.val {
					t.Fatalf("Get(%s@%d) = %q, %v, %v; want %q", want.key, want.ver, val, ok, err, want.val)
				}
			}
			if err := s.PutBatch(nil); err != nil {
				t.Errorf("empty batch errored: %v", err)
			}
		})
	}
}

func TestStoreDeleteBatch(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			_ = s.Put("a", 1, []byte("a1"))
			_ = s.Put("a", 2, []byte("a2"))
			_ = s.Put("b", 7, []byte("b7"))
			_ = s.Put("c", 3, []byte("c3"))
			existed, err := s.DeleteBatch([]Deletion{
				{Key: "a", Version: 1},      // concrete hit
				{Key: "b", Version: Latest}, // Latest resolves to 7
				{Key: "ghost", Version: 1},  // missing key
				{Key: "c", Version: 9},      // missing version
				{Key: "a", Version: 1},      // already removed above
			})
			if err != nil {
				t.Fatalf("DeleteBatch: %v", err)
			}
			want := []bool{true, true, false, false, false}
			for i, w := range want {
				if existed[i] != w {
					t.Fatalf("existed = %v, want %v", existed, want)
				}
			}
			if s.Count() != 2 {
				t.Fatalf("Count = %d, want 2 (a@2, c@3 survive)", s.Count())
			}
			if _, _, ok, _ := s.Get("a", 2); !ok {
				t.Fatal("sibling version a@2 vanished")
			}
			// Two Latest items for one key remove its two newest
			// versions (resolution sees the not-yet-deleted state).
			_ = s.Put("m", 1, []byte("m1"))
			_ = s.Put("m", 2, []byte("m2"))
			existed, err = s.DeleteBatch([]Deletion{
				{Key: "m", Version: Latest},
				{Key: "m", Version: Latest},
			})
			if err != nil || !existed[0] || !existed[1] {
				t.Fatalf("double-Latest: existed=%v err=%v", existed, err)
			}
			if _, _, ok, _ := s.Get("m", Latest); ok {
				t.Fatal("versions of m survived the double-Latest batch")
			}
			if _, err := s.DeleteBatch(nil); err != nil {
				t.Errorf("empty delete batch errored: %v", err)
			}
		})
	}
}

// TestStorePutBatchValidatesUpfront pins the all-or-nothing contract
// for statically invalid batches: an object CheckObject refuses — a
// reserved version, a key over MaxKeyLen, a value over MaxValueLen (the
// memory engine's bound too) — anywhere in the batch must fail it
// before any object is stored.
func TestStorePutBatchValidatesUpfront(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for _, tc := range []struct {
				bad  Object
				want error
			}{
				{Object{Key: "bad", Version: Latest, Value: []byte("v")}, ErrBadVersion},
				{Object{Key: strings.Repeat("k", MaxKeyLen+1), Version: 1, Value: []byte("v")}, ErrKeyTooLong},
				{Object{Key: "big", Version: 1, Value: hugeValue()}, ErrValueTooLarge},
			} {
				if err := s.Put(tc.bad.Key, tc.bad.Version, tc.bad.Value); !errors.Is(err, tc.want) {
					t.Fatalf("Put: %v, want %v", err, tc.want)
				}
				batch := []Object{{Key: "good", Version: 1, Value: []byte("v")}, tc.bad}
				if err := s.PutBatch(batch); !errors.Is(err, tc.want) {
					t.Fatalf("PutBatch: %v, want %v", err, tc.want)
				}
				if s.Count() != 0 {
					t.Fatalf("Count = %d after rejected %v batch, want 0", s.Count(), tc.want)
				}
			}
		})
	}
}

func TestStoreReservedVersion(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if err := s.Put("k", Latest, nil); !errors.Is(err, ErrBadVersion) {
				t.Errorf("Put(Latest) err = %v, want ErrBadVersion", err)
			}
			// AllVersions is the whole-key delete sentinel: an object
			// stored under it would shadow Latest reads forever and be
			// individually unaddressable by delete.
			if err := s.Put("k", AllVersions, nil); !errors.Is(err, ErrBadVersion) {
				t.Errorf("Put(AllVersions) err = %v, want ErrBadVersion", err)
			}
			if err := s.PutBatch([]Object{{Key: "k", Version: AllVersions}}); !errors.Is(err, ErrBadVersion) {
				t.Errorf("PutBatch(AllVersions) err = %v, want ErrBadVersion", err)
			}
		})
	}
}

func TestStoreForEach(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			_ = s.Put("a", 1, nil)
			_ = s.Put("a", 2, nil)
			_ = s.Put("b", 1, nil)
			var seen []string
			err := s.ForEachIn(AllRanges(), func(key string, version uint64) bool {
				seen = append(seen, fmt.Sprintf("%s@%d", key, version))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != 3 {
				t.Fatalf("ForEachIn visited %v", seen)
			}
			// Early stop.
			count := 0
			_ = s.ForEachIn(AllRanges(), func(string, uint64) bool {
				count++
				return false
			})
			if count != 1 {
				t.Errorf("early stop visited %d", count)
			}
		})
	}
}

func TestStoreValueIsolation(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			buf := []byte("mutate me")
			_ = s.Put("k", 1, buf)
			buf[0] = 'X'
			val, _, _, _ := s.Get("k", 1)
			if val[0] == 'X' {
				t.Error("store aliased caller's put buffer")
			}
			val[0] = 'Y'
			val2, _, _, _ := s.Get("k", 1)
			if val2[0] == 'Y' {
				t.Error("store aliased returned buffer")
			}
		})
	}
}

func TestStoreClosedErrors(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			s.Close()
			if err := s.Put("k", 1, nil); !errors.Is(err, ErrClosed) {
				t.Errorf("Put after close: %v", err)
			}
			if _, _, _, err := s.Get("k", 1); !errors.Is(err, ErrClosed) {
				t.Errorf("Get after close: %v", err)
			}
			if err := s.ForEachIn(AllRanges(), func(string, uint64) bool { return true }); !errors.Is(err, ErrClosed) {
				t.Errorf("ForEachIn after close: %v", err)
			}
			if _, err := s.DeleteBatch([]Deletion{{Key: "k", Version: 1}}); !errors.Is(err, ErrClosed) {
				t.Errorf("DeleteBatch after close: %v", err)
			}
		})
	}
}

// TestCheckObject pins the one object rule: the bounds are exact, and
// every refusal names its cause.
func TestCheckObject(t *testing.T) {
	long := strings.Repeat("k", MaxKeyLen)
	for _, tc := range []struct {
		name    string
		key     string
		version uint64
		value   int // value length; the bytes are never touched
		want    error
	}{
		{"plain", "k", 1, 3, nil},
		{"empty key and value", "", 0, 0, nil},
		{"largest ordinary version", "k", AllVersions - 1, 0, nil},
		{"Latest", "k", Latest, 0, ErrBadVersion},
		{"AllVersions", "k", AllVersions, 0, ErrBadVersion},
		{"longest key", long, 1, 0, nil},
		{"key one byte over", long + "k", 1, 0, ErrKeyTooLong},
		{"largest value", long, 1, MaxValueLen, nil},
		{"value one byte over", "k", 1, MaxValueLen + 1, ErrValueTooLarge},
	} {
		err := CheckObject(tc.key, tc.version, hugeValue()[:tc.value])
		if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: CheckObject = %v, want %v", tc.name, err, tc.want)
		}
	}
	// The largest object fits the log's record format.
	if MaxValueLen+MaxKeyLen+recFixedLen != maxRecBody {
		t.Errorf("MaxValueLen %d does not fill a record body of %d with a %d-byte key", MaxValueLen, maxRecBody, MaxKeyLen)
	}
}

// storeModel is what a store must hold after a sequence of writes: key
// → version → value.
type storeModel map[string]map[uint64][]byte

func (m storeModel) put(o Object) {
	if m[o.Key] == nil {
		m[o.Key] = map[uint64][]byte{}
	}
	if _, ok := m[o.Key][o.Version]; !ok {
		m[o.Key][o.Version] = o.Value
	}
}

// deleteBatch applies items in order and reports what each removed.
func (m storeModel) deleteBatch(items []Deletion) []bool {
	existed := make([]bool, len(items))
	for i, it := range items {
		v := it.Version
		if v == Latest {
			vs := m.versions(it.Key)
			if len(vs) == 0 {
				continue
			}
			v = vs[len(vs)-1]
		}
		if _, ok := m[it.Key][v]; ok {
			delete(m[it.Key], v)
			existed[i] = true
		}
	}
	return existed
}

func (m storeModel) versions(key string) []uint64 {
	var vs []uint64
	for v := range m[key] {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	return vs
}

// check compares every observable of s with the model.
func (m storeModel) check(s Store, keys []string) error {
	var sums RangeSums
	count := 0
	for _, key := range keys {
		want := m.versions(key)
		got, err := s.Versions(key)
		if err != nil || !slices.Equal(got, want) {
			return fmt.Errorf("Versions(%s) = %v, %v; want %v", key, got, err, want)
		}
		for _, v := range want {
			val, _, ok, err := s.Get(key, v)
			if err != nil || !ok || !bytes.Equal(val, m[key][v]) {
				return fmt.Errorf("Get(%s, %d) = %q, %v, %v; want %q", key, v, val, ok, err, m[key][v])
			}
			r, h := HeaderSum(key, v)
			sums[r].XOR ^= h
			sums[r].Count++
			count++
		}
		_, latest, ok, err := s.Get(key, Latest)
		if err != nil || ok != (len(want) > 0) || ok && latest != want[len(want)-1] {
			return fmt.Errorf("Get(%s, Latest) = v%d, %v, %v; want the newest of %v", key, latest, ok, err, want)
		}
	}
	if got := s.Count(); got != count {
		return fmt.Errorf("Count = %d, want %d", got, count)
	}
	if s.RangeSums() != sums {
		return fmt.Errorf("RangeSums differ from the model's")
	}
	return nil
}

// TestStoreRoundTripProperty is the model test of the one write path:
// random runs of Put, PutBatch — in-batch duplicates, re-puts, now and
// then an object CheckObject refuses — and DeleteBatch — exact versions,
// Latest twice on one key, absent items — against a map model, on both
// engines. Get, Versions, Count, RangeSums and DeleteBatch's existed
// must match the model after every step, and the log's again after it
// reopens. The log's segments are small, so batches span segment rolls.
func TestStoreRoundTripProperty(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", string([]byte{0, 0xff})}
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		dir := t.TempDir()
		opts := LogOptions{SegmentMaxBytes: 256}
		lg, err := OpenLog(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		engines := map[string]Store{"memory": NewMemory(), "log": lg}
		model := storeModel{}
		object := func() Object {
			val := make([]byte, rng.IntN(24))
			for i := range val {
				val[i] = byte(rng.Uint32())
			}
			return Object{Key: keys[rng.IntN(len(keys))], Version: 1 + rng.Uint64N(5), Value: val}
		}
		for step := 0; step < 120; step++ {
			var op string
			var run func(s Store) (interface{}, error)
			var want interface{}
			switch p := rng.IntN(10); {
			case p < 3:
				o := object()
				op = fmt.Sprintf("Put(%s, %d)", o.Key, o.Version)
				run = func(s Store) (interface{}, error) { return nil, s.Put(o.Key, o.Version, o.Value) }
				model.put(o)
			case p < 7:
				batch := make([]Object, 1+rng.IntN(6))
				for i := range batch {
					batch[i] = object()
					if i > 0 && rng.IntN(4) == 0 {
						batch[i] = batch[rng.IntN(i)] // an in-batch duplicate
					}
				}
				op = fmt.Sprintf("PutBatch(%v)", batch)
				if rng.IntN(8) == 0 {
					bad := object()
					if rng.IntN(2) == 0 {
						bad.Version = Latest
					} else {
						bad.Key = strings.Repeat("k", MaxKeyLen+1)
					}
					batch[rng.IntN(len(batch))] = bad
					want = "refused"
					run = func(s Store) (interface{}, error) {
						if err := s.PutBatch(batch); err == nil {
							return nil, errors.New("invalid batch stored")
						}
						return "refused", nil
					}
					break
				}
				run = func(s Store) (interface{}, error) { return nil, s.PutBatch(batch) }
				for _, o := range batch {
					model.put(o)
				}
			default:
				items := make([]Deletion, 1+rng.IntN(5))
				for i := range items {
					switch q := rng.IntN(4); {
					case q == 0:
						items[i] = Deletion{Key: keys[rng.IntN(len(keys))], Version: Latest}
					case q == 1 && i > 0:
						items[i] = Deletion{Key: items[i-1].Key, Version: Latest}
					case q == 2:
						items[i] = Deletion{Key: "ghost", Version: 1}
					default:
						items[i] = Deletion{Key: keys[rng.IntN(len(keys))], Version: 1 + rng.Uint64N(5)}
					}
				}
				op = fmt.Sprintf("DeleteBatch(%v)", items)
				run = func(s Store) (interface{}, error) { return s.DeleteBatch(items) }
				want = model.deleteBatch(items)
			}
			for name, s := range engines {
				got, err := run(s)
				if err != nil {
					t.Fatalf("seed %d step %d %s: %s: %v", seed, step, name, op, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d %s: %s = %v, want %v", seed, step, name, op, got, want)
				}
				if err := model.check(s, keys); err != nil {
					t.Fatalf("seed %d step %d %s after %s: %v", seed, step, name, op, err)
				}
			}
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		if lg, err = OpenLog(dir, opts); err != nil {
			t.Fatal(err)
		}
		if err := model.check(lg, keys); err != nil {
			t.Fatalf("seed %d, log reopened: %v", seed, err)
		}
		lg.Close()
	}
}
