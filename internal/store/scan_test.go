package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scanFixture writes objects with small records of varying size — so
// records straddle window edges — and one ~200 KiB record, far longer
// than a window, into one sealed segment of a closed log at dir.
func scanFixture(t *testing.T, dir string) []Object {
	t.Helper()
	l, err := OpenLog(dir, LogOptions{CompactLiveRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	var objs []Object
	var off int64
	straddles := 0
	for i := 0; i < 1500; i++ {
		n := 20 + i*37%400
		if i == 700 {
			n = 200 << 10
		}
		o := Object{Key: fmt.Sprintf("key%05d", i), Version: uint64(i%4 + 1), Value: bytes.Repeat([]byte{byte(i)}, n)}
		end := off + recordSize(o.Key, o.Value)
		if off/streamChunkBytes != (end-1)/streamChunkBytes {
			straddles++
		}
		off = end
		objs = append(objs, o)
	}
	if straddles < 4 {
		t.Fatalf("only %d records straddle a window edge", straddles)
	}
	if err := l.PutBatch(objs); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return objs
}

// storeObjects reads back every object st holds.
func storeObjects(t *testing.T, st Store) map[Ref][]byte {
	t.Helper()
	var refs []Ref
	if err := st.ForEachIn(AllRanges(), func(key string, version uint64) bool {
		refs = append(refs, Ref{Key: key, Version: version})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	out := make(map[Ref][]byte, len(refs))
	for _, r := range refs {
		v, _, ok, err := st.Get(r.Key, r.Version)
		if err != nil || !ok {
			t.Fatalf("Get %s@%d: ok=%v err=%v", r.Key, r.Version, ok, err)
		}
		out[r] = append([]byte(nil), v...)
	}
	return out
}

// copyDir copies the segment files of one log directory to another.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentReadersLongRecords runs every reader of scanSegment over
// one segment that holds a record longer than a window and many small
// records cut by window edges: each must see every object whole.
func TestSegmentReadersLongRecords(t *testing.T) {
	fixture := t.TempDir()
	objs := scanFixture(t, fixture)
	want := make(map[Ref][]byte, len(objs))
	for _, o := range objs {
		want[Ref{Key: o.Key, Version: o.Version}] = o.Value
	}
	segBytes, err := os.ReadFile(filepath.Join(fixture, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		read func(t *testing.T, l *Log) map[Ref][]byte
	}{
		{"replay", func(t *testing.T, l *Log) map[Ref][]byte { return storeObjects(t, l) }},
		{"stream", func(t *testing.T, l *Log) map[Ref][]byte { return decodeAll(t, collectSegments(t, l)) }},
		{"manifest", func(t *testing.T, l *Log) map[Ref][]byte {
			infos, err := l.Segments()
			if err != nil {
				t.Fatal(err)
			}
			info := infos[0]
			if len(infos) != 1 || info.Records != len(objs) || info.Bytes != int64(len(segBytes)) ||
				info.CRC != crc32.ChecksumIEEE(segBytes) || info.MinKey != objs[0].Key || info.MaxKey != objs[len(objs)-1].Key {
				t.Fatalf("manifest %+v does not describe the %d-record, %d-byte segment", infos, len(objs), len(segBytes))
			}
			return want
		}},
		{"restore", func(t *testing.T, l *Log) map[Ref][]byte {
			snap := filepath.Join(t.TempDir(), "snap")
			if _, err := WriteSnapshot(l, snap); err != nil {
				t.Fatal(err)
			}
			st := NewMemory()
			stats, err := Restore(snap, st)
			if err != nil || stats.TruncatedBytes != 0 || stats.Objects != len(objs) {
				t.Fatalf("Restore: %+v, %v", stats, err)
			}
			return storeObjects(t, st)
		}},
		{"compaction", func(t *testing.T, l *Log) map[Ref][]byte {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(l.Dir(), segmentName(1))); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("compacted segment 1 still on disk: %v", err)
			}
			return storeObjects(t, l)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, fixture, dir)
			// Every sealed segment sits below a live ratio of 2, so a
			// compaction pass relocates all of them.
			l, err := OpenLog(dir, LogOptions{CompactLiveRatio: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			got := tc.read(t, l)
			if len(got) != len(want) {
				t.Fatalf("read %d objects, want %d", len(got), len(want))
			}
			for ref, v := range want {
				if !bytes.Equal(got[ref], v) {
					t.Fatalf("%s@%d: read %d bytes, want %d", ref.Key, ref.Version, len(got[ref]), len(v))
				}
			}
		})
	}
}

// TestLogCompactionRotFailsPass pins compaction's bad-record policy: a
// rotted record in a sealed candidate fails the pass with ErrCorrupt
// and its location, removes no segment, and leaves every other object
// readable.
func TestLogCompactionRotFailsPass(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{SegmentMaxBytes: 1024, CompactLiveRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	objs := fillStore(t, l, 120)
	if l.SegmentCount() < 4 {
		t.Fatalf("want several segments, got %d", l.SegmentCount())
	}

	// Rot a byte mid-way through sealed segment 1 while every segment is
	// still fully live, so no pass has started yet.
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := len(data) / 2
	var victim Ref
	var victimOff int
	for off := 0; ; {
		rec, n, ok := parseRecord(data[off:])
		if !ok {
			t.Fatalf("fixture segment unparseable at %d", off)
		}
		if off+n > flip {
			victim, victimOff = Ref{Key: rec.key, Version: rec.version}, off
			break
		}
		off += n
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{data[flip] ^ 0xff}, int64(flip)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Drop every other object: each sealed segment's live ratio falls
	// below 0.6, so segment 1 heads the candidate prefix.
	live := make(map[Ref][]byte)
	var dels []Deletion
	for i, o := range objs {
		ref := Ref{Key: o.Key, Version: o.Version}
		if i%2 == 0 && ref != victim {
			dels = append(dels, Deletion{Key: o.Key, Version: o.Version})
			continue
		}
		live[ref] = o.Value
	}
	if _, err := l.DeleteBatch(dels); err != nil {
		t.Fatal(err)
	}
	segsBefore, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}

	where := fmt.Sprintf("segment 1 offset %d", victimOff)
	err = l.Compact()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), where) {
		t.Fatalf("Compact over rot: %v, want ErrCorrupt at %s", err, where)
	}
	if err := l.CompactionErr(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), where) {
		t.Fatalf("CompactionErr: %v, want ErrCorrupt at %s", err, where)
	}
	for _, p := range segsBefore {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("segment %s removed by a failed pass: %v", filepath.Base(p), err)
		}
	}
	for ref, v := range live {
		got, _, ok, err := l.Get(ref.Key, ref.Version)
		if ref == victim {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rotted %s@%d: %v, want ErrCorrupt", ref.Key, ref.Version, err)
			}
			continue
		}
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("%s@%d after failed pass: ok=%v err=%v", ref.Key, ref.Version, ok, err)
		}
	}
}

// FuzzScanSegment holds scanSegment to a whole-buffer parseRecord loop
// over segments of fuzzed record sizes (some longer than a window), cut
// short and with one byte flipped: both must stop at the same verified
// end, and the windows handed out must concatenate to exactly the
// bytes before it.
func FuzzScanSegment(f *testing.F) {
	f.Add([]byte{3, 200, 7}, uint32(0), uint32(0), byte(0))
	f.Add([]byte{9, 245, 3, 250}, uint32(0), uint32(0), byte(0))
	f.Add([]byte{250, 9, 255, 1}, uint32(70000), uint32(0), byte(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint32(0), uint32(123), byte(1))
	f.Add([]byte{240, 241}, uint32(65536+13), uint32(65536+40), byte(3))
	f.Fuzz(func(t *testing.T, sizes []byte, cut, flip uint32, mode byte) {
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		var seg []byte
		for i, s := range sizes {
			n := int(s) * 7
			if s >= 0xf0 {
				n = streamChunkBytes + int(s&0x0f)*4099 // longer than a window
			}
			seg = appendObjectRecord(seg, Object{Key: fmt.Sprintf("k%d", i), Version: uint64(i + 1), Value: bytes.Repeat([]byte{s}, n)}, s%5 == 0 && s < 0xf0)
		}
		if mode&1 != 0 && len(seg) > 0 {
			seg[int(flip)%len(seg)] ^= byte(flip>>24) | 1
		}
		if mode&2 != 0 {
			seg = seg[:int(cut)%(len(seg)+1)]
		}

		want := 0
		for want < len(seg) {
			_, n, ok := parseRecord(seg[want:])
			if !ok {
				break
			}
			want += n
		}
		var got []byte
		end, err := scanSegment(bytes.NewReader(seg).ReadAt, int64(len(seg)), 0, func(off int64, data []byte, recs []segRec) error {
			if off != int64(len(got)) {
				t.Fatalf("window at %d, want %d", off, len(got))
			}
			for _, r := range recs {
				if r.off < off || r.off+r.len > off+int64(len(data)) {
					t.Fatalf("record at [%d, %d) outside window [%d, %d)", r.off, r.off+r.len, off, off+int64(len(data)))
				}
			}
			got = append(got, data...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if end != int64(want) {
			t.Fatalf("scan ended at %d, whole-buffer parse at %d", end, want)
		}
		if !bytes.Equal(got, seg[:want]) {
			t.Fatalf("windows concatenate to %d bytes, not the %d verified ones", len(got), want)
		}
	})
}
