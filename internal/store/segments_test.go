package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fillStore writes n deterministic objects through PutBatch.
func fillStore(t *testing.T, st Store, n int) []Object {
	t.Helper()
	objs := make([]Object, 0, n)
	for i := 0; i < n; i++ {
		objs = append(objs, Object{
			Key:     fmt.Sprintf("key%04d", i),
			Version: uint64(i%3 + 1),
			Value:   bytes.Repeat([]byte{byte(i)}, 20+i%50),
		})
	}
	if err := st.PutBatch(objs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	return objs
}

// collectSegments streams the full manifest and reassembles each
// segment's byte stream, checking chunk contiguity and Last marking.
func collectSegments(t *testing.T, st Store) map[uint64][]byte {
	t.Helper()
	infos, err := st.Segments()
	if err != nil {
		t.Fatalf("Segments: %v", err)
	}
	refs := make([]SegmentRef, 0, len(infos))
	for _, info := range infos {
		refs = append(refs, SegmentRef{ID: info.ID})
	}
	streams := make(map[uint64][]byte)
	sawLast := make(map[uint64]bool)
	err = st.StreamSegments(refs, func(c SegmentChunk) bool {
		if int64(len(streams[c.Segment])) != c.Offset {
			t.Fatalf("segment %d: chunk at offset %d, have %d bytes", c.Segment, c.Offset, len(streams[c.Segment]))
		}
		streams[c.Segment] = append(streams[c.Segment], c.Data...)
		if c.Last {
			sawLast[c.Segment] = true
		}
		return true
	})
	if err != nil {
		t.Fatalf("StreamSegments: %v", err)
	}
	for _, info := range infos {
		stream := streams[info.ID]
		if int64(len(stream)) != info.Bytes {
			t.Fatalf("segment %d: streamed %d bytes, manifest says %d", info.ID, len(stream), info.Bytes)
		}
		if crc := crc32.ChecksumIEEE(stream); crc != info.CRC {
			t.Fatalf("segment %d: stream CRC %08x, manifest says %08x", info.ID, crc, info.CRC)
		}
		if !sawLast[info.ID] {
			t.Fatalf("segment %d: no chunk marked Last", info.ID)
		}
	}
	return streams
}

// decodeAll parses every record of every streamed segment.
func decodeAll(t *testing.T, streams map[uint64][]byte) map[Ref][]byte {
	t.Helper()
	out := make(map[Ref][]byte)
	for id, stream := range streams {
		_, err := DecodeRecords(stream, func(_ int, o Object, tombstone bool) bool {
			if tombstone {
				delete(out, Ref{Key: o.Key, Version: o.Version})
				return true
			}
			out[Ref{Key: o.Key, Version: o.Version}] = append([]byte(nil), o.Value...)
			return true
		})
		if err != nil {
			t.Fatalf("segment %d: decode: %v", id, err)
		}
	}
	return out
}

func TestLogSegmentManifestAndStream(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogOptions{SegmentMaxBytes: 1024, CompactLiveRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	objs := fillStore(t, l, 200)

	infos, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < 2 {
		t.Fatalf("want several sealed segments with 1KiB roll size, got %d", len(infos))
	}
	for i, info := range infos {
		if i > 0 && infos[i-1].ID >= info.ID {
			t.Fatalf("manifest not ascending: %v", infos)
		}
		if info.Records == 0 || info.Bytes == 0 {
			t.Fatalf("empty manifest entry: %+v", info)
		}
		if info.MinKey == "" || info.MaxKey < info.MinKey {
			t.Fatalf("bad key range: %+v", info)
		}
	}
	// Second call must serve the cached manifests and agree.
	again, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(infos) != fmt.Sprint(again) {
		t.Fatalf("manifest changed between calls:\n%v\n%v", infos, again)
	}

	decoded := decodeAll(t, collectSegments(t, l))
	// Every decoded record must match the written object; the active
	// segment's tail objects are allowed to be missing.
	for ref, val := range decoded {
		var want []byte
		for _, o := range objs {
			if o.Key == ref.Key && o.Version == ref.Version {
				want = o.Value
			}
		}
		if want == nil || !bytes.Equal(val, want) {
			t.Fatalf("decoded %v does not match written object", ref)
		}
	}
	if len(decoded) == 0 {
		t.Fatal("no records decoded from sealed segments")
	}
}

func TestLogSealMakesActiveStreamable(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogOptions{CompactLiveRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fillStore(t, l, 10)
	infos, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("nothing sealed yet, manifest has %d entries", len(infos))
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil { // empty active: no-op
		t.Fatal(err)
	}
	infos, err = l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Records != 10 {
		t.Fatalf("after Seal want one 10-record segment, got %+v", infos)
	}
	if got := decodeAll(t, collectSegments(t, l)); len(got) != 10 {
		t.Fatalf("decoded %d records, want 10", len(got))
	}
}

func TestStreamSegmentsResume(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogOptions{CompactLiveRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fillStore(t, l, 50)
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	streams := collectSegments(t, l)
	info, _ := l.Segments()
	id := info[0].ID
	full := streams[id]

	// Resume from each chunk boundary the full stream reported.
	var boundaries []int64
	_ = l.StreamSegments([]SegmentRef{{ID: id}}, func(c SegmentChunk) bool {
		boundaries = append(boundaries, c.Offset+int64(len(c.Data)))
		return true
	})
	for _, b := range boundaries {
		var got []byte
		err := l.StreamSegments([]SegmentRef{{ID: id, Offset: b}}, func(c SegmentChunk) bool {
			got = append(got, c.Data...)
			return true
		})
		if err != nil {
			t.Fatalf("resume at %d: %v", b, err)
		}
		if !bytes.Equal(got, full[b:]) {
			t.Fatalf("resume at %d: got %d bytes, want %d", b, len(got), len(full)-int(b))
		}
	}
}

func TestStreamSegmentsCorruptionStopsStream(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{CompactLiveRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fillStore(t, l, 80)
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	infos, _ := l.Segments()
	id := infos[0].ID

	// Flip one byte mid-segment, past the first few records.
	path := filepath.Join(dir, SegmentFileName(id))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := len(data) / 2
	data[flip] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var got int64
	err = l.StreamSegments([]SegmentRef{{ID: id}}, func(c SegmentChunk) bool {
		got = c.Offset + int64(len(c.Data))
		return true
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if got == 0 || got > int64(flip) {
		t.Fatalf("verified prefix reached %d, corruption at %d: corrupt bytes must not ship", got, flip)
	}
}

func TestSyntheticSegments(t *testing.T) {
	for name, st := range map[string]Store{"memory": NewMemory()} {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			// Empty store: empty manifest.
			infos, err := st.Segments()
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 0 {
				t.Fatalf("empty store manifest: %v", infos)
			}
			objs := fillStore(t, st, 60)
			infos, err = st.Segments()
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 1 || infos[0].Records != len(objs) {
				t.Fatalf("want one synthetic segment with %d records, got %+v", len(objs), infos)
			}
			if infos[0].MinKey != "key0000" || infos[0].MaxKey != "key0059" {
				t.Fatalf("bad key range: %+v", infos[0])
			}
			decoded := decodeAll(t, collectSegments(t, st))
			if len(decoded) != len(objs) {
				t.Fatalf("decoded %d records, want %d", len(decoded), len(objs))
			}
			for _, o := range objs {
				if !bytes.Equal(decoded[Ref{Key: o.Key, Version: o.Version}], o.Value) {
					t.Fatalf("object %s@%d did not round-trip", o.Key, o.Version)
				}
			}
			// Resume mid-stream.
			full := collectSegments(t, st)[syntheticSegmentID]
			var boundaries []int64
			_ = st.StreamSegments([]SegmentRef{{ID: syntheticSegmentID}}, func(c SegmentChunk) bool {
				boundaries = append(boundaries, c.Offset+int64(len(c.Data)))
				return true
			})
			b := boundaries[0]
			var got []byte
			if err := st.StreamSegments([]SegmentRef{{ID: syntheticSegmentID, Offset: b}}, func(c SegmentChunk) bool {
				got = append(got, c.Data...)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, full[b:]) {
				t.Fatalf("synthetic resume at %d diverged", b)
			}
		})
	}
}

func TestRecordApplierTombstoneOrdering(t *testing.T) {
	enc := func(o Object, tomb bool) []byte { return appendObjectRecord(nil, o, tomb) }
	obj := Object{Key: "k", Version: 7, Value: []byte("v")}

	// put@seg1, tomb@seg2 → deleted, regardless of arrival order.
	st := NewMemory()
	a := NewRecordApplier(st, nil)
	if _, err := a.Apply(2, 0, enc(Object{Key: "k", Version: 7}, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(1, 0, enc(obj, false)); err != nil {
		t.Fatal(err)
	}
	if n, err := a.Finish(); err != nil || n != 1 {
		t.Fatalf("Finish = %d, %v; want 1 deletion", n, err)
	}
	if _, _, ok, _ := st.Get("k", 7); ok {
		t.Fatal("tombstone after put must delete the object")
	}

	// put@seg1, tomb@seg2, re-put@seg3 → alive.
	st2 := NewMemory()
	a2 := NewRecordApplier(st2, nil)
	tomb := Object{Key: obj.Key, Version: obj.Version}
	for _, step := range []struct {
		seg  uint64
		tomb bool
	}{{2, true}, {3, false}, {1, false}} {
		rec := obj
		if step.tomb {
			rec = tomb
		}
		if _, err := a2.Apply(step.seg, 0, enc(rec, step.tomb)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := a2.Finish(); err != nil || n != 0 {
		t.Fatalf("Finish = %d, %v; want 0 deletions", n, err)
	}
	if _, _, ok, _ := st2.Get("k", 7); !ok {
		t.Fatal("re-put after tombstone must survive")
	}

	// tomb then re-put within the SAME chunk → alive: records must
	// carry their byte offset inside the chunk, not the chunk base, or
	// the pair compares equal and the tombstone wrongly survives.
	st3 := NewMemory()
	a3 := NewRecordApplier(st3, nil)
	chunk := enc(tomb, true)
	chunk = append(chunk, enc(obj, false)...)
	if _, err := a3.Apply(1, 0, chunk); err != nil {
		t.Fatal(err)
	}
	if n, err := a3.Finish(); err != nil || n != 0 {
		t.Fatalf("Finish = %d, %v; want 0 deletions", n, err)
	}
	if _, _, ok, _ := st3.Get("k", 7); !ok {
		t.Fatal("re-put later in the same chunk must survive the tombstone")
	}

	// ...and the mirror case: re-put then tomb in the same chunk, at a
	// non-zero chunk base → deleted.
	st4 := NewMemory()
	a4 := NewRecordApplier(st4, nil)
	chunk = enc(obj, false)
	chunk = append(chunk, enc(tomb, true)...)
	if _, err := a4.Apply(1, 4096, chunk); err != nil {
		t.Fatal(err)
	}
	if n, err := a4.Finish(); err != nil || n != 1 {
		t.Fatalf("Finish = %d, %v; want 1 deletion", n, err)
	}
	if _, _, ok, _ := st4.Get("k", 7); ok {
		t.Fatal("tombstone later in the same chunk must delete the object")
	}
}

func TestRecordApplierFilter(t *testing.T) {
	st := NewMemory()
	a := NewRecordApplier(st, func(key string) bool { return key == "keep" })
	chunk := appendObjectRecord(nil, Object{Key: "keep", Version: 1, Value: []byte("x")}, false)
	chunk = appendObjectRecord(chunk, Object{Key: "drop", Version: 1, Value: []byte("y")}, false)
	n, err := a.Apply(1, 0, chunk)
	if err != nil || n != 1 {
		t.Fatalf("Apply = %d, %v; want 1 accepted", n, err)
	}
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	if st.Count() != 1 {
		t.Fatalf("store has %d objects, want 1", st.Count())
	}
	if _, _, ok, _ := st.Get("drop", 1); ok {
		t.Fatal("filtered key stored")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(filepath.Join(dir, "data"), LogOptions{SegmentMaxBytes: 2048, CompactLiveRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	objs := fillStore(t, l, 150)
	// Delete a few so the snapshot carries tombstones.
	deleted := map[Ref]bool{}
	for i := 0; i < 10; i++ {
		o := objs[i*7]
		if _, err := deleteOne(l, o.Key, o.Version); err != nil {
			t.Fatal(err)
		}
		deleted[Ref{Key: o.Key, Version: o.Version}] = true
	}
	snapDir := filepath.Join(dir, "snap")
	man, err := WriteSnapshot(l, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) == 0 {
		t.Fatal("snapshot recorded no segments")
	}
	if _, err := ReadManifest(snapDir); err != nil {
		t.Fatal(err)
	}
	live := l.Count()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for _, engine := range []string{"memory", "log"} {
		t.Run(engine, func(t *testing.T) {
			var st Store
			if engine == "memory" {
				st = NewMemory()
			} else {
				var err error
				st, err = OpenLog(t.TempDir(), LogOptions{})
				if err != nil {
					t.Fatal(err)
				}
			}
			defer st.Close()
			stats, err := Restore(snapDir, st)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if stats.TruncatedBytes != 0 || stats.TruncatedSegments != 0 {
				t.Fatalf("clean restore reported truncation: %+v", stats)
			}
			if st.Count() != live {
				t.Fatalf("restored %d objects, want %d", st.Count(), live)
			}
			for _, o := range objs {
				_, _, ok, err := st.Get(o.Key, o.Version)
				if err != nil {
					t.Fatal(err)
				}
				want := !deleted[Ref{Key: o.Key, Version: o.Version}]
				if ok != want {
					t.Fatalf("object %s@%d present=%v, want %v", o.Key, o.Version, ok, want)
				}
			}
		})
	}
}

func TestRestoreTruncatesCorruptTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(filepath.Join(dir, "data"), LogOptions{CompactLiveRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, l, 100)
	snapDir := filepath.Join(dir, "snap")
	man, err := WriteSnapshot(l, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a byte mid-way through the segment file.
	path := filepath.Join(snapDir, SegmentFileName(man.Segments[0].ID))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st := NewMemory()
	defer st.Close()
	stats, err := Restore(snapDir, st)
	if err != nil {
		t.Fatalf("Restore after corruption: %v", err)
	}
	if stats.TruncatedSegments != 1 || stats.TruncatedBytes == 0 {
		t.Fatalf("want truncation reported, got %+v", stats)
	}
	if stats.Objects == 0 || st.Count() == 0 || st.Count() >= 100 {
		t.Fatalf("want a partial restore (prefix), got %d objects", st.Count())
	}
	// Restore must never fabricate data: everything restored verifies.
	if _, _, ok, _ := st.Get("key0000", 1); !ok {
		t.Fatal("first object missing from truncated restore")
	}
}

func TestRestoreMissingManifestFails(t *testing.T) {
	st := NewMemory()
	defer st.Close()
	if _, err := Restore(t.TempDir(), st); err == nil {
		t.Fatal("restore of a non-snapshot directory must fail")
	}
}
