package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
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

func TestStoreDelete(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			_ = s.Put("k", 1, []byte("a"))
			_ = s.Put("k", 2, []byte("b"))
			if existed, err := s.Delete("k", 1); err != nil || !existed {
				t.Fatalf("delete present version: existed=%v err=%v", existed, err)
			}
			if _, _, ok, _ := s.Get("k", 1); ok {
				t.Error("deleted version still present")
			}
			if _, _, ok, _ := s.Get("k", 2); !ok {
				t.Error("sibling version vanished")
			}
			if existed, err := s.Delete("k", 1); err != nil || existed {
				t.Errorf("double delete: existed=%v err=%v", existed, err)
			}
			if existed, err := s.Delete("ghost", 1); err != nil || existed {
				t.Errorf("delete missing key: existed=%v err=%v", existed, err)
			}
			if s.Count() != 1 {
				t.Errorf("Count = %d, want 1", s.Count())
			}
		})
	}
}

// TestStoreDeleteLatest pins the Delete(key, Latest) semantics: it
// resolves to the newest stored version, mirroring Get, instead of
// being a silent no-op (Latest is never a stored version).
func TestStoreDeleteLatest(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			_ = s.Put("k", 2, []byte("old"))
			_ = s.Put("k", 5, []byte("new"))
			if _, err := s.Delete("k", Latest); err != nil {
				t.Fatalf("Delete(Latest): %v", err)
			}
			if _, _, ok, _ := s.Get("k", 5); ok {
				t.Fatal("newest version survived Delete(Latest)")
			}
			if val, _, ok, _ := s.Get("k", 2); !ok || string(val) != "old" {
				t.Fatalf("older version lost: %q %v", val, ok)
			}
			if _, err := s.Delete("k", Latest); err != nil {
				t.Fatalf("second Delete(Latest): %v", err)
			}
			if s.Count() != 0 {
				t.Fatalf("Count = %d after deleting every version", s.Count())
			}
			if _, err := s.Delete("k", Latest); err != nil {
				t.Errorf("Delete(Latest) on empty key errored: %v", err)
			}
			if _, err := s.Delete("ghost", Latest); err != nil {
				t.Errorf("Delete(Latest) on missing key errored: %v", err)
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
// for statically invalid batches: an object Put would refuse — a
// reserved version, a key over MaxKeyLen — anywhere in the batch must
// fail it before any object is stored.
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
			err := s.ForEach(func(key string, version uint64) bool {
				seen = append(seen, fmt.Sprintf("%s@%d", key, version))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != 3 {
				t.Fatalf("ForEach visited %v", seen)
			}
			// Early stop.
			count := 0
			_ = s.ForEach(func(string, uint64) bool {
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
			if err := s.ForEach(func(string, uint64) bool { return true }); !errors.Is(err, ErrClosed) {
				t.Errorf("ForEach after close: %v", err)
			}
		})
	}
}

func TestStoreRoundTripProperty(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	prop := func(key string, version uint64, value []byte) bool {
		if version == Latest {
			version--
		}
		err := s.Put(key, version, value)
		if len(key) > MaxKeyLen { // quick's strings run to 200 bytes
			return errors.Is(err, ErrKeyTooLong)
		}
		if err != nil {
			return false
		}
		got, ver, ok, err := s.Get(key, version)
		return err == nil && ok && ver == version && bytes.Equal(got, value)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryCapped(t *testing.T) {
	s := NewMemoryCapped(3)
	defer s.Close()
	for v := uint64(1); v <= 5; v++ {
		_ = s.Put("k", v, []byte{byte(v)})
	}
	vs, _ := s.Versions("k")
	if len(vs) != 3 || vs[0] != 3 {
		t.Fatalf("capped versions = %v, want [3 4 5]", vs)
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	_, _, ok, _ := s.Get("k", 1)
	if ok {
		t.Error("GC'd version still readable")
	}
}
