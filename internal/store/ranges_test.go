package store

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"testing"
)

// scannedSums recomputes an engine's range sums the slow way, from a
// full header walk.
func scannedSums(t *testing.T, s Store) RangeSums {
	t.Helper()
	var sums RangeSums
	err := s.ForEachIn(AllRanges(), func(key string, version uint64) bool {
		r, h := HeaderSum(key, version)
		sums[r].XOR ^= h
		sums[r].Count++
		return true
	})
	if err != nil {
		t.Fatalf("ForEachIn: %v", err)
	}
	return sums
}

// checkRanges asserts the three range invariants on one engine: the
// maintained sums equal the scanned ones, a walk of AllRanges visits
// Count headers in (key, version) order, and ForEachIn(set) visits
// exactly the headers of that walk that fall in set, in the same order.
func checkRanges(t *testing.T, label string, s Store, rng *rand.Rand) {
	t.Helper()
	sums, scanned := s.RangeSums(), scannedSums(t, s)
	for r := range sums {
		if sums[r] != scanned[r] {
			t.Fatalf("%s: range %d sum = %+v, a scan says %+v", label, r, sums[r], scanned[r])
		}
	}
	var all []Ref
	_ = s.ForEachIn(AllRanges(), func(key string, version uint64) bool {
		all = append(all, Ref{key, version})
		return true
	})
	if len(all) != s.Count() {
		t.Fatalf("%s: ForEachIn visited %d headers, Count = %d", label, len(all), s.Count())
	}
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Key > b.Key || (a.Key == b.Key && a.Version >= b.Version) {
			t.Fatalf("%s: ForEachIn out of (key, version) order: %v before %v", label, a, b)
		}
	}
	var set RangeSet
	for r := 0; r < NumRanges; r++ {
		if rng.IntN(4) == 0 {
			set.Add(r)
		}
	}
	var want []Ref
	for _, h := range all {
		if r, _ := HeaderSum(h.Key, h.Version); set.Has(r) {
			want = append(want, h)
		}
	}
	var visited []Ref
	_ = s.ForEachIn(set, func(key string, version uint64) bool {
		visited = append(visited, Ref{key, version})
		return true
	})
	if fmt.Sprint(visited) != fmt.Sprint(want) {
		t.Fatalf("%s: ForEachIn(%v) visited %d headers %v, want the %d of the selection %v",
			label, set, len(visited), visited, len(want), want)
	}
}

// TestPrefixRangesHoldTheirKeys: a key's KeyHash prefix at every depth
// names ranges that hold the key's range — a block of them up to depth
// RangeBits, that one range below — and the blocks of one depth tile
// the ranges.
func TestPrefixRangesHoldTheirKeys(t *testing.T) {
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key%04d", i)
		r, _ := HeaderSum(key, 1)
		for depth := 0; depth <= 64; depth++ {
			lo, hi := PrefixRanges(depth, KeyHash(key)>>(64-depth))
			if r < lo || r >= hi || hi-lo != max(1, NumRanges>>depth) {
				t.Fatalf("%s (range %d) at depth %d: prefix ranges [%d, %d)", key, r, depth, lo, hi)
			}
		}
	}
	for depth := 0; depth <= RangeBits; depth++ {
		next := 0
		for prefix := uint64(0); prefix < 1<<depth; prefix++ {
			lo, hi := PrefixRanges(depth, prefix)
			if lo != next {
				t.Fatalf("depth %d prefix %d starts at range %d, want %d", depth, prefix, lo, next)
			}
			next = hi
		}
		if next != NumRanges {
			t.Fatalf("depth %d prefixes end at range %d", depth, next)
		}
	}
}

// TestRangeSumsFollowEveryMutation drives the memory and the log engine
// through the same random sequence of every operation that moves a
// header in or out of an index — puts, batches (with duplicates),
// deletes by version and by Latest, batch deletes — with the log engine
// compacting, closing and reopening on the way, and checks after each
// step that the maintained sums equal a rescan and that the two engines,
// holding the same objects, fingerprint the same. A snapshot restored
// into fresh engines of both kinds must fingerprint like its source.
func TestRangeSumsFollowEveryMutation(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			dir := t.TempDir()
			// Tiny segments and an eager threshold: compaction has work.
			opts := LogOptions{SegmentMaxBytes: 2 << 10, CompactLiveRatio: 0.9}
			lg, err := OpenLog(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { lg.Close() }()
			mem := NewMemory()
			both := func(op func(s Store) error) {
				t.Helper()
				for _, s := range []Store{mem, lg} {
					if err := op(s); err != nil {
						t.Fatalf("%T: %v", s, err)
					}
				}
			}
			key := func() string { return fmt.Sprintf("key%03d", rng.IntN(120)) }
			ver := func() uint64 { return uint64(1 + rng.IntN(4)) }
			val := func() []byte { return make([]byte, rng.IntN(96)) }

			for step := 0; step < 400; step++ {
				switch op := rng.IntN(10); {
				case op < 3:
					k, v, b := key(), ver(), val()
					both(func(s Store) error { return s.Put(k, v, b) })
				case op < 5:
					batch := make([]Object, 1+rng.IntN(12))
					for i := range batch {
						batch[i] = Object{Key: key(), Version: ver(), Value: val()}
					}
					both(func(s Store) error { return s.PutBatch(batch) })
				case op < 7:
					k, v := key(), ver()
					if rng.IntN(3) == 0 {
						v = Latest
					}
					both(func(s Store) error { _, err := deleteOne(s, k, v); return err })
				case op < 8:
					items := make([]Deletion, 1+rng.IntN(8))
					for i := range items {
						items[i] = Deletion{Key: key(), Version: ver()}
						if rng.IntN(3) == 0 {
							items[i].Version = Latest
						}
					}
					both(func(s Store) error { _, err := s.DeleteBatch(items); return err })
				case op < 9:
					if err := lg.Compact(); err != nil {
						t.Fatalf("Compact: %v", err)
					}
				default:
					if err := lg.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					if lg, err = OpenLog(dir, opts); err != nil {
						t.Fatalf("reopen: %v", err)
					}
				}
				label := fmt.Sprintf("step %d", step)
				checkRanges(t, label+" memory", mem, rng)
				checkRanges(t, label+" log", lg, rng)
				if mem.RangeSums() != lg.RangeSums() {
					t.Fatalf("%s: the engines hold the same objects and fingerprint differently", label)
				}
			}

			// A snapshot drops a segment that compaction takes from under
			// it; capture with the compactor off so the copy is whole.
			if err := lg.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if lg, err = OpenLog(dir, LogOptions{SegmentMaxBytes: opts.SegmentMaxBytes, CompactLiveRatio: -1}); err != nil {
				t.Fatalf("reopen: %v", err)
			}
			snap := filepath.Join(t.TempDir(), "snap")
			if _, err := WriteSnapshot(lg, snap); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			restoredLog, err := OpenLog(t.TempDir(), LogOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer restoredLog.Close()
			for name, s := range map[string]Store{"memory": NewMemory(), "log": restoredLog} {
				if _, err := Restore(snap, s); err != nil {
					t.Fatalf("Restore into %s: %v", name, err)
				}
				checkRanges(t, "restored "+name, s, rng)
				if s.RangeSums() != lg.RangeSums() {
					t.Fatalf("restored %s engine fingerprints differently from the snapshot's source", name)
				}
			}
		})
	}
}

// TestRangeSumsConcurrentWriters hammers both engines with overlapping
// PutBatch, DeleteBatch and the three readers from several goroutines (run
// it under -race): the sums settle on what a scan finds.
func TestRangeSumsConcurrentWriters(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(w), 1))
					for i := 0; i < 150; i++ {
						batch := make([]Object, 8)
						for j := range batch {
							batch[j] = Object{Key: fmt.Sprintf("key%03d", rng.IntN(200)), Version: uint64(1 + rng.IntN(3))}
						}
						if err := s.PutBatch(batch); err != nil {
							t.Errorf("PutBatch: %v", err)
							return
						}
						if _, err := deleteOne(s, batch[0].Key, Latest); err != nil {
							t.Errorf("DeleteBatch: %v", err)
							return
						}
						_ = s.RangeSums()
						var set RangeSet
						set.Add(rng.IntN(NumRanges))
						_ = s.ForEachIn(set, func(string, uint64) bool { return true })
					}
				}(w)
			}
			wg.Wait()
			checkRanges(t, name, s, rand.New(rand.NewPCG(9, 9)))
		})
	}
}
