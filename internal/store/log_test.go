package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordSize is the on-disk size of one put record.
func recordSize(key string, value []byte) int64 {
	return int64(recHeaderLen + recFixedLen + len(key) + len(value))
}

func TestLogRecordRoundTrip(t *testing.T) {
	rec := appendRecord(nil, recPut, "key", 42, []byte("value"))
	got, n, ok := parseRecord(rec)
	if !ok || n != len(rec) {
		t.Fatalf("parseRecord ok=%v n=%d", ok, n)
	}
	if got.typ != recPut || got.key != "key" || got.version != 42 || string(got.value) != "value" {
		t.Fatalf("parseRecord = %+v", got)
	}
	tomb := appendRecord(nil, recTomb, "key", 42, nil)
	got, _, ok = parseRecord(tomb)
	if !ok || got.typ != recTomb || got.key != "key" || got.version != 42 {
		t.Fatalf("tombstone roundtrip = %+v ok=%v", got, ok)
	}
}

func TestLogParseRejectsDamage(t *testing.T) {
	rec := appendRecord(nil, recPut, "key", 7, []byte("value"))
	for i := range rec {
		bad := append([]byte(nil), rec...)
		bad[i] ^= 0x40
		if got, _, ok := parseRecord(bad); ok {
			// A flip in the length field may still parse iff the CRC
			// happens to match the re-framed body — effectively
			// impossible; any accepted parse here is a bug.
			t.Fatalf("flip at %d accepted: %+v", i, got)
		}
	}
	if _, _, ok := parseRecord(rec[:recHeaderLen-2]); ok {
		t.Error("short header accepted")
	}
	if _, _, ok := parseRecord(rec[:len(rec)-1]); ok {
		t.Error("truncated body accepted")
	}
}

func TestLogTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put("a", 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Put("b", 2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the second record in half, as a crash mid-append would.
	seg := filepath.Join(dir, segmentName(1))
	full := recordSize("a", []byte("first")) + recordSize("b", []byte("second"))
	if err := os.Truncate(seg, full-3); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if l2.Count() != 1 {
		t.Fatalf("recovered %d objects, want 1", l2.Count())
	}
	if val, _, ok, err := l2.Get("a", 1); err != nil || !ok || string(val) != "first" {
		t.Fatalf("intact record lost: %q %v %v", val, ok, err)
	}
	if _, _, ok, _ := l2.Get("b", 2); ok {
		t.Fatal("torn record served")
	}
	// The tail was physically truncated, so appends resume cleanly.
	if err := l2.Put("c", 3, []byte("after recovery")); err != nil {
		t.Fatal(err)
	}
	if val, _, ok, _ := l2.Get("c", 3); !ok || string(val) != "after recovery" {
		t.Fatalf("post-recovery put = %q %v", val, ok)
	}
}

// TestLogCrashRecoveryProperty is the randomized crash test: N puts,
// then the tail is truncated or bit-flipped at a random offset. After
// reopening, every record wholly before the damage must survive with
// its exact value, nothing at or past the damage may be served, and the
// log must accept new writes.
func TestLogCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xf1a5, 0xc0de))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		l, err := OpenLog(dir, LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		type obj struct {
			key string
			ver uint64
			val []byte
			end int64 // file offset just past this record
		}
		var objs []obj
		var off int64
		n := 20 + rng.IntN(40)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%03d", rng.IntN(7))
			ver := uint64(i + 1)
			val := make([]byte, rng.IntN(64))
			for j := range val {
				val[j] = byte(rng.UintN(256))
			}
			if err := l.Put(key, ver, val); err != nil {
				t.Fatal(err)
			}
			off += recordSize(key, val)
			objs = append(objs, obj{key, ver, val, off})
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		seg := filepath.Join(dir, segmentName(1))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != off {
			t.Fatalf("segment size %d, expected %d", fi.Size(), off)
		}
		// Damage the log at a random offset. Truncation keeps records
		// wholly below the cut; a bit flip additionally destroys the
		// record containing the flipped byte.
		cut := rng.Int64N(off) // damage point in [0, off)
		damageStart := cut
		if rng.IntN(2) == 0 {
			if err := os.Truncate(seg, cut); err != nil {
				t.Fatal(err)
			}
		} else {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			data[cut] ^= 0xff
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			// The damaged record starts at the end of the last record
			// that finishes at or before the flipped byte.
			damageStart = 0
			for _, o := range objs {
				if o.end <= cut {
					damageStart = o.end
				}
			}
		}

		l2, err := OpenLog(dir, LogOptions{})
		if err != nil {
			t.Fatalf("trial %d: reopen after damage at %d: %v", trial, cut, err)
		}
		want := 0
		for _, o := range objs {
			if o.end <= damageStart {
				want++
				val, ver, ok, err := l2.Get(o.key, o.ver)
				if err != nil || !ok || ver != o.ver || !bytes.Equal(val, o.val) {
					t.Fatalf("trial %d: intact %s@%d lost (ok=%v err=%v)", trial, o.key, o.ver, ok, err)
				}
			} else {
				if _, _, ok, err := l2.Get(o.key, o.ver); ok || err != nil {
					t.Fatalf("trial %d: damaged %s@%d served (ok=%v err=%v)", trial, o.key, o.ver, ok, err)
				}
			}
		}
		if l2.Count() != want {
			t.Fatalf("trial %d: recovered %d objects, want %d", trial, l2.Count(), want)
		}
		if err := l2.Put("resume", uint64(n+1), []byte("post-crash")); err != nil {
			t.Fatalf("trial %d: post-recovery put: %v", trial, err)
		}
		l2.Close()
	}
}

func TestLogCorruptionInSealedSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Put(fmt.Sprintf("k%d", i), 1, []byte("some value here")); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("expected several segments, got %d", l.SegmentCount())
	}
	l.Close()
	// Corruption in a non-last segment is not a torn tail: it means
	// acknowledged history was damaged, and replay must say so.
	seg1 := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(dir, LogOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with mid-log corruption: %v, want ErrCorrupt", err)
	}
}

func TestLogTombstonesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Put("k", 1, []byte("doomed"))
	_ = l.Put("k", 2, []byte("kept"))
	if _, err := deleteOne(l, "k", 1); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := l2.Get("k", 1); ok {
		t.Fatal("deleted version resurrected by replay")
	}
	if val, _, ok, _ := l2.Get("k", 2); !ok || string(val) != "kept" {
		t.Fatalf("surviving version = %q %v", val, ok)
	}
	// Re-put after delete is a fresh write and must survive another
	// restart even though an older tombstone for it is in the log.
	if err := l2.Put("k", 1, []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if val, _, ok, _ := l3.Get("k", 1); !ok || string(val) != "reborn" {
		t.Fatalf("re-put after delete = %q %v", val, ok)
	}
}

func TestLogSegmentRollAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{SegmentMaxBytes: 256, CompactLiveRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 40; i++ {
		if err := l.Put(fmt.Sprintf("k%02d", i), 1, val); err != nil {
			t.Fatal(err)
		}
	}
	before := l.SegmentCount()
	if before < 5 {
		t.Fatalf("expected many segments, got %d", before)
	}
	// Kill most objects; the sealed segments' live ratio collapses.
	for i := 0; i < 36; i++ {
		if _, err := deleteOne(l, fmt.Sprintf("k%02d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	after := l.SegmentCount()
	if after >= before {
		t.Fatalf("compaction kept %d segments (was %d)", after, before)
	}
	for i := 36; i < 40; i++ {
		key := fmt.Sprintf("k%02d", i)
		got, _, ok, err := l.Get(key, 1)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("survivor %s lost after compaction (ok=%v err=%v)", key, ok, err)
		}
	}
	if l.Count() != 4 {
		t.Fatalf("Count = %d after compaction, want 4", l.Count())
	}
	l.Close()
	// The compacted log must replay to the same state.
	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Count() != 4 {
		t.Fatalf("reopened compacted log has %d objects, want 4", l2.Count())
	}
	for i := 0; i < 36; i++ {
		if _, _, ok, _ := l2.Get(fmt.Sprintf("k%02d", i), 1); ok {
			t.Fatalf("deleted k%02d resurrected after compaction+reopen", i)
		}
	}
}

func TestLogGroupCommitConcurrentDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				errs <- l.Put(fmt.Sprintf("w%d-%d", w, i), 1, []byte{byte(w), byte(i)})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if l.Count() != writers*perWriter {
		t.Fatalf("Count = %d, want %d", l.Count(), writers*perWriter)
	}
	l.Close()
	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Count() != writers*perWriter {
		t.Fatalf("recovered %d objects, want %d", l2.Count(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			val, _, ok, err := l2.Get(fmt.Sprintf("w%d-%d", w, i), 1)
			if err != nil || !ok || !bytes.Equal(val, []byte{byte(w), byte(i)}) {
				t.Fatalf("w%d-%d lost (ok=%v err=%v)", w, i, ok, err)
			}
		}
	}
}

func TestLogCorruptRecordNotServed(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Put("k", 1, []byte("pristine value")); err != nil {
		t.Fatal(err)
	}
	// Rot a value byte on disk behind the running store's back.
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, recordSize("k", []byte("pristine value"))-3); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, _, err := l.Get("k", 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on rotted record: %v, want ErrCorrupt", err)
	}
}

func TestLogRejectsOversizedValue(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A record the parser would reject must be refused at Put time,
	// not acknowledged and then unreadable: hugeValue is one byte over
	// MaxValueLen.
	huge := make([]byte, 16)
	if err := l.Put("k", 1, huge); err != nil {
		t.Fatalf("small value refused: %v", err)
	}
	if err := l.Put("k", 2, hugeValue()); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("oversized value err = %v, want ErrValueTooLarge", err)
	}
	// Keys have their own bound, exact at MaxKeyLen.
	if err := l.Put(strings.Repeat("k", MaxKeyLen), 1, nil); err != nil {
		t.Fatalf("%d-byte key refused: %v", MaxKeyLen, err)
	}
	if err := l.Put(strings.Repeat("k", MaxKeyLen+1), 1, nil); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("oversized key err = %v, want ErrKeyTooLong", err)
	}
	if l.Count() != 2 {
		t.Fatalf("Count = %d after rejected puts", l.Count())
	}
}

func TestLogDuplicatePutWaitsForDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put("k", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The duplicate must report success only through the group-commit
	// path (joining any pending fsync of the original), and never
	// deadlock or error.
	for i := 0; i < 3; i++ {
		if err := l.Put("k", 1, []byte("v")); err != nil {
			t.Fatalf("dup put %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Count() != 1 {
		t.Fatalf("Count = %d after dup puts, want 1", l2.Count())
	}
}

func TestLogPutBatchDurableAfterReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]Object, 64)
	for i := range objs {
		objs[i] = Object{Key: fmt.Sprintf("b%02d", i), Version: 1, Value: []byte{byte(i)}}
	}
	if err := l.PutBatch(objs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Count() != len(objs) {
		t.Fatalf("recovered %d objects, want %d", l2.Count(), len(objs))
	}
	for i := range objs {
		val, _, ok, err := l2.Get(fmt.Sprintf("b%02d", i), 1)
		if err != nil || !ok || !bytes.Equal(val, []byte{byte(i)}) {
			t.Fatalf("b%02d lost (ok=%v err=%v)", i, ok, err)
		}
	}
}

func TestLogPutBatchRollsSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{SegmentMaxBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 200)
	objs := make([]Object, 10) // ~2 KiB total, past the 1 KiB roll point
	for i := range objs {
		objs[i] = Object{Key: fmt.Sprintf("k%02d", i), Version: 1, Value: val}
	}
	if err := l.PutBatch(objs); err != nil {
		t.Fatal(err)
	}
	if l.SegmentCount() < 2 {
		t.Fatalf("oversized batch did not roll the segment: %d segments", l.SegmentCount())
	}
	if err := l.Put("after", 1, val); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := OpenLog(dir, LogOptions{SegmentMaxBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Count() != len(objs)+1 {
		t.Fatalf("recovered %d objects, want %d", l2.Count(), len(objs)+1)
	}
}

func TestLogDeleteLatestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Put("k", 1, []byte("old"))
	_ = l.Put("k", 5, []byte("new"))
	if _, err := deleteOne(l, "k", Latest); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, _, ok, _ := l2.Get("k", 5); ok {
		t.Fatal("Delete(Latest) did not survive reopen")
	}
	if val, _, ok, _ := l2.Get("k", 1); !ok || string(val) != "old" {
		t.Fatalf("older version lost: %q %v", val, ok)
	}
}

// TestLogConcurrentOpsDuringCompaction hammers Put/Get/Delete from
// several goroutines while Compact runs continuously. No read may ever
// observe ErrCorrupt, the final state must match what each writer's
// deterministic schedule left behind, and compaction must reclaim
// space once the churn settles. Run with -race this doubles as the
// locking proof for the snapshot/copy/revalidate pass.
func TestLogConcurrentOpsDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{SegmentMaxBytes: 4 << 10, CompactLiveRatio: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	perWriter := 300
	if testing.Short() {
		perWriter = 100
	}
	errCh := make(chan error, writers+1)
	stop := make(chan struct{})
	var compactWG sync.WaitGroup
	compactWG.Add(1)
	go func() {
		defer compactWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Compact(); err != nil {
				errCh <- fmt.Errorf("compact: %w", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0xbeef))
			val := bytes.Repeat([]byte{byte(w + 1)}, 128)
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%32)
				ver := uint64(i + 1)
				if err := l.Put(key, ver, val); err != nil {
					errCh <- fmt.Errorf("put: %w", err)
					return
				}
				probe := fmt.Sprintf("w%d-k%d", w, rng.IntN(32))
				if _, _, _, err := l.Get(probe, Latest); err != nil {
					errCh <- fmt.Errorf("get: %w", err)
					return
				}
				if i > 0 && i%3 == 0 {
					if _, err := deleteOne(l, key, ver); err != nil {
						errCh <- fmt.Errorf("delete: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	compactWG.Wait()
	close(errCh)
	for err := range errCh {
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("concurrent op observed corruption: %v", err)
		}
		t.Fatal(err)
	}
	// Each writer's schedule is deterministic: perWriter puts minus the
	// i>0, i%3==0 deletes.
	deleted := (perWriter - 1) / 3
	want := writers * (perWriter - deleted)
	if l.Count() != want {
		t.Fatalf("Count = %d after churn, want %d", l.Count(), want)
	}
	// Kill most of what's left; compaction must reclaim segments.
	before := l.SegmentCount()
	for w := 0; w < writers; w++ {
		for i := 0; i < 30; i++ {
			key := fmt.Sprintf("w%d-k%d", w, i)
			for _, v := range mustVersions(t, l, key) {
				if _, err := deleteOne(l, key, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("final compaction: %v", err)
	}
	if after := l.SegmentCount(); after >= before {
		t.Fatalf("compaction reclaimed nothing: %d segments before, %d after", before, after)
	}
	// The compacted log replays to the same state.
	finalCount := l.Count()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatalf("reopen after churn+compaction: %v", err)
	}
	defer l2.Close()
	if l2.Count() != finalCount {
		t.Fatalf("reopened Count = %d, want %d", l2.Count(), finalCount)
	}
}

func mustVersions(t *testing.T, s Store, key string) []uint64 {
	t.Helper()
	vs, err := s.Versions(key)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestLogCompactionDoesNotBlockForeground pins the tentpole property:
// with compaction throttled hard (a pass that would take ~40s),
// foreground Put/Get complete promptly because the pass never holds
// the store lock across its reads, sleeps or rewrites. Close then
// interrupts the throttled pass via the stop channel.
func TestLogCompactionDoesNotBlockForeground(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{
		SegmentMaxBytes:        32 << 10,
		CompactLiveRatio:       0.9,
		CompactRateBytesPerSec: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 300; i++ {
		if err := l.Put(fmt.Sprintf("k%04d", i), 1, val); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.SegmentCount()
	// The deletes kick the background pass, which immediately reads the
	// first 32 KiB segment and then owes the throttle ~4s — long after
	// this test is done, and before it may remove anything.
	for i := 0; i < 270; i++ {
		if _, err := deleteOne(l, fmt.Sprintf("k%04d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%04d", 270+i%30)
		if _, _, ok, err := l.Get(key, 1); err != nil || !ok {
			t.Fatalf("Get during throttled compaction: ok=%v err=%v", ok, err)
		}
		if err := l.Put(fmt.Sprintf("fg%04d", i), 1, val); err != nil {
			t.Fatalf("Put during throttled compaction: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("foreground ops took %s under throttled compaction", elapsed)
	}
	if got := l.SegmentCount(); got < segs {
		t.Fatalf("throttled pass already removed segments (%d -> %d); throttle not applied?", segs, got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close with compaction in flight: %v", err)
	}
	// The interrupted pass must leave a consistent, replayable log.
	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatalf("reopen after interrupted compaction: %v", err)
	}
	defer l2.Close()
	if l2.Count() != 300-270+200 {
		t.Fatalf("reopened Count = %d, want %d", l2.Count(), 300-270+200)
	}
}

func TestLogCompactionErrSurfaced(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Compact(); err != nil {
		t.Fatalf("no-op compaction: %v", err)
	}
	if err := l.CompactionErr(); err != nil {
		t.Fatalf("CompactionErr after clean pass: %v", err)
	}
}

func TestLogIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README.txt", "0000000001.seg.bak", "notaseg"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Count() != 0 {
		t.Fatalf("indexed %d foreign objects", l.Count())
	}
}

func TestLogReopenRollsFullActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{SegmentMaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Put("k", 1, bytes.Repeat([]byte("x"), 1<<20))
	l.Close()
	l2, err := OpenLog(dir, LogOptions{SegmentMaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.SegmentCount() != 2 {
		t.Fatalf("full segment not sealed on reopen: %d segments", l2.SegmentCount())
	}
	if val, _, ok, _ := l2.Get("k", 1); !ok || len(val) != 1<<20 {
		t.Fatalf("big object lost (ok=%v len=%d)", ok, len(val))
	}
}

// --- shared persistent-engine recovery suite --------------------------------

func TestPersistentEnginesRecoverAfterReopen(t *testing.T) {
	for name, open := range persistentEngines() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			_ = s.Put("persist", 3, []byte("across restarts"))
			_ = s.Put("persist", 5, []byte("newer"))
			_ = s.Put("other", 1, []byte("x"))
			if _, err := deleteOne(s, "other", 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Count() != 2 {
				t.Fatalf("recovered %d objects, want 2", s2.Count())
			}
			val, ver, ok, err := s2.Get("persist", Latest)
			if err != nil || !ok || ver != 5 || string(val) != "newer" {
				t.Fatalf("recovered latest = (%q, v%d, %v, %v)", val, ver, ok, err)
			}
			if _, _, ok, _ := s2.Get("other", 1); ok {
				t.Fatal("delete did not survive reopen")
			}
		})
	}
}

func TestPersistentEnginesSurviveStrayFiles(t *testing.T) {
	for name, open := range persistentEngines() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := s.Put(fmt.Sprintf("k%d", i), 1, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			// A crash can leave unrelated junk (editor backups, torn
			// temp files) in the data directory; recovery must ignore
			// it and keep every acknowledged object.
			for _, junk := range []string{"tmp-999.partial", "junk.bin"} {
				if err := os.WriteFile(filepath.Join(dir, junk), []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s2, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Count() != 5 {
				t.Fatalf("recovered %d objects, want 5", s2.Count())
			}
		})
	}
}

// ticketsIssued reads how many durable writes have taken a ticket.
func ticketsIssued(l *Log) uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tickets
}

// ticketsReach polls until n tickets have been issued; it reports
// false if that takes over ten seconds.
func ticketsReach(l *Log, n uint64) bool {
	for deadline := time.Now().Add(10 * time.Second); ticketsIssued(l) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// waitTickets is ticketsReach on the test's goroutine.
func waitTickets(t *testing.T, l *Log, n uint64) {
	t.Helper()
	if !ticketsReach(l, n) {
		t.Fatalf("only %d of %d tickets issued", ticketsIssued(l), n)
	}
}

// TestLogGroupCommitWritersShareSyncs: K concurrent fsync'd batches
// all succeed and share fsyncs. The first sync is held until every
// writer has appended, so the rest must ride one sync between them.
func TestLogGroupCommitWritersShareSyncs(t *testing.T) {
	const k = 16
	l, err := OpenLog(t.TempDir(), LogOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var once sync.Once
	l.commit.syncFile = func(f *os.File) error {
		// A timeout only lets the writers through unshared: the
		// assertion on Syncs below reports it.
		once.Do(func() { ticketsReach(l, k) })
		return f.Sync()
	}
	var wg sync.WaitGroup
	errs := make([]error, k)
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = l.PutBatch([]Object{
				{Key: fmt.Sprintf("a%d", w), Version: 1, Value: []byte("x")},
				{Key: fmt.Sprintf("b%d", w), Version: 1, Value: []byte("y")},
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	st := l.Stats()
	if st.Syncs < 1 || st.Syncs >= k {
		t.Fatalf("Syncs = %d for %d writers, want 1 ≤ Syncs < %d", st.Syncs, k, k)
	}
	if st.SyncedWrites != k {
		t.Fatalf("SyncedWrites = %d, want %d", st.SyncedWrites, k)
	}
}

// TestLogFailedSyncFailsExactlyItsWrites: a failed sync reports its
// error to the writes it covered — those that appended before it began
// — and to no other, and a second failure does not take over the
// first's writes.
func TestLogFailedSyncFailsExactlyItsWrites(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	errA, errB := errors.New("sync A failed"), errors.New("sync B failed")
	entered, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	calls := 0
	l.commit.syncFile = func(f *os.File) error {
		mu.Lock()
		calls++
		call := calls
		mu.Unlock()
		switch call {
		case 2:
			close(entered)
			<-release
			return errA
		case 3:
			return errB
		}
		return f.Sync()
	}
	put := func(key string) error { return l.Put(key, 1, []byte(key)) }

	if err := put("a"); err != nil { // ticket 1, sync 1
		t.Fatalf("a: %v", err)
	}
	results := map[string]chan error{}
	start := func(key string) {
		ch := make(chan error, 1)
		results[key] = ch
		go func() { ch <- put(key) }()
	}
	start("b") // ticket 2 leads sync 2, which blocks
	<-entered
	start("c") // tickets 3 and 4 wait for sync 2, which began before
	start("d") // them, and ride sync 3
	waitTickets(t, l, 4)
	close(release)
	want := map[string]error{"b": errA, "c": errB, "d": errB}
	for key, w := range want {
		if got := <-results[key]; got != w {
			t.Errorf("%s: err = %v, want %v", key, got, w)
		}
	}
	if err := put("e"); err != nil { // ticket 5, sync 4
		t.Fatalf("e: %v", err)
	}
	if st := l.Stats(); st.Syncs != 4 || st.SyncedWrites != 5 {
		t.Fatalf("Syncs = %d, SyncedWrites = %d; want 4 and 5", st.Syncs, st.SyncedWrites)
	}
	l.commit.mu.Lock()
	left := len(l.commit.failed)
	l.commit.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d failed syncs still held after every writer collected", left)
	}

	// Two failures settle before any of their writers collects: each
	// writer still gets its own sync's error.
	var c groupCommit
	c.init()
	c.settle(2, errA) // tickets 1 and 2
	c.settle(3, errB) // ticket 3
	for _, tc := range []struct {
		ticket uint64
		want   error
	}{{3, errB}, {1, errA}, {2, errA}} {
		if got := c.collect(tc.ticket); got != tc.want {
			t.Errorf("ticket %d: err = %v, want %v", tc.ticket, got, tc.want)
		}
	}
	if len(c.failed) != 0 {
		t.Fatalf("%d failed syncs held after their writers collected", len(c.failed))
	}
}

// TestLogCloseReleasesWaitingWriters: Close while writers wait for
// their group commit returns every one of them, with the final sync's
// result, and leaves no goroutine behind.
func TestLogCloseReleasesWaitingWriters(t *testing.T) {
	const k = 8
	base := runtime.NumGoroutine()
	l, err := OpenLog(t.TempDir(), LogOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	l.commit.syncFile = func(f *os.File) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return f.Sync()
	}
	errs := make(chan error, k)
	for w := 0; w < k; w++ {
		go func(w int) { errs <- l.Put(fmt.Sprintf("w%d", w), 1, []byte("v")) }(w)
	}
	<-entered
	waitTickets(t, l, k)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	for {
		l.mu.RLock()
		c := l.closed
		l.mu.RUnlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for w := 0; w < k; w++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Errorf("writer: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d writers still waiting after Close", k-w)
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before Open:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
