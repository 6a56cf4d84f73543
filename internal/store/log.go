package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Log is the log-structured engine: objects are appended to segmented
// write-ahead files as length-prefixed, CRC32-checksummed records, and
// the shared in-memory header index maps (key, version) to the record's
// location. Opening a log replays every segment sequentially to rebuild
// the index; a torn record at the tail of the last segment (a crash
// mid-append) is truncated away instead of failing recovery, so a node
// always comes back with every object it made durable.
//
// The hot write path is one sequential write per Put. With Fsync
// enabled, concurrent writers coalesce into a single fsync (group
// commit): each Put appends under the log lock, registers a waiter,
// and the committer goroutine syncs the active segment once for every
// waiter that appended before the sync — the batch is whoever arrived
// while the previous fsync was in flight.
// Deletes append tombstone records so they survive restarts.
//
// Segments seal at SegmentMaxBytes and a background compactor rewrites
// the prefix of sealed segments whose live ratio (bytes of records
// still referenced by the index over total bytes) fell below
// CompactLiveRatio, dropping superseded duplicates, deleted objects and
// tombstones. Compaction only ever processes a downward-closed prefix
// of segments: a tombstone is always appended at or after its target
// put, so dropping every tombstone in a prefix can never resurrect a
// record in the segments that remain.
//
// A compaction pass runs almost entirely outside the store lock so the
// foreground Put/Get/Delete path never stalls behind segment-sized
// I/O: live record locations are snapshotted under a brief read lock,
// segment reads and the copy loop run with no lock held (throttled by
// CompactRateBytesPerSec), each copied batch is revalidated against
// the current index under a short write lock before the swap, and
// records deleted mid-flight are simply discarded.
//
// Safe for concurrent use.
type Log struct {
	mu   sync.RWMutex
	dir  string
	dirF *os.File
	opts LogOptions

	idx    rangeIndex[recLoc]
	segs   map[uint64]*segment
	segIDs []uint64 // ascending; last is the active segment
	active *segment
	closed bool

	// compactErr is the result of the most recent compaction pass; the
	// background loop has no caller to return it to.
	compactErr error
	// compactPasses counts passes that found candidates and rewrote
	// them (Stats), guarded by mu like the rest of the bookkeeping.
	compactPasses uint64
	// compactMu serializes compaction passes (the background loop and
	// direct Compact calls) without blocking the store lock.
	compactMu sync.Mutex

	// Group commit: waiters are Puts/Deletes blocked on durability.
	commitMu sync.Mutex
	waiters  []chan error

	commitKick  chan struct{}
	compactKick chan struct{}
	stop        chan struct{}
	wg          sync.WaitGroup
}

var _ Store = (*Log)(nil)
var _ StatsProvider = (*Log)(nil)

// LogOptions tunes the log engine. The zero value is a working
// configuration: no fsync, 64 MiB segments, compaction below 50% live.
type LogOptions struct {
	// Fsync makes Put and Delete block until the record is on stable
	// storage. Concurrent writers share fsyncs via group commit.
	Fsync bool
	// SegmentMaxBytes seals the active segment once it reaches this
	// size (default 64 MiB).
	SegmentMaxBytes int64
	// CompactLiveRatio triggers compaction of sealed segments whose
	// live-byte ratio falls below it (default 0.5; negative disables
	// compaction).
	CompactLiveRatio float64
	// CompactRateBytesPerSec throttles compaction copy throughput
	// (bytes read plus bytes re-appended per second) so background
	// maintenance cannot monopolize the disk under foreground load.
	// Zero means unlimited.
	CompactRateBytesPerSec int64
}

func (o LogOptions) withDefaults() LogOptions {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 64 << 20
	}
	if o.CompactLiveRatio == 0 {
		o.CompactLiveRatio = 0.5
	}
	return o
}

// segment is one append-only file of the log.
type segment struct {
	id   uint64
	f    *os.File
	size int64
	live int64 // bytes of records the index still points at
	// manifest caches the sealed segment's bulk-transfer metadata
	// (Segments()); valid because sealed segment bytes never change.
	manifest *SegmentInfo
}

// recLoc locates one record inside a segment.
type recLoc struct {
	seg uint64
	off int64
	len int64
}

// Record layout, little-endian:
//
//	u32 body length | u32 CRC32(body) | body
//	body: u8 type | u64 version | u16 key length | key | value
//
// The CRC covers the whole body, so a torn header, torn body or bit rot
// anywhere in the record fails verification.
const (
	recHeaderLen = 8
	recFixedLen  = 1 + 8 + 2
	recPut       = byte(1)
	recTomb      = byte(2)
	maxRecBody   = 1 << 30
)

// record is one decoded log record; value aliases the decode buffer.
type record struct {
	typ     byte
	key     string
	version uint64
	value   []byte
}

func appendRecord(dst []byte, typ byte, key string, version uint64, value []byte) []byte {
	body := recFixedLen + len(key) + len(value)
	start := len(dst)
	dst = append(dst, make([]byte, recHeaderLen+body)...)
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(body))
	p := b[recHeaderLen:]
	p[0] = typ
	binary.LittleEndian.PutUint64(p[1:9], version)
	binary.LittleEndian.PutUint16(p[9:11], uint16(len(key)))
	copy(p[11:], key)
	copy(p[11+len(key):], value)
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(p))
	return dst
}

// parseRecord decodes the record at the head of b. ok is false for a
// short, corrupt or nonsensical record — the caller decides whether
// that means a torn tail (truncate) or corruption (fail).
func parseRecord(b []byte) (rec record, size int, ok bool) {
	if len(b) < recHeaderLen {
		return record{}, 0, false
	}
	body := binary.LittleEndian.Uint32(b[0:4])
	if body < recFixedLen || body > maxRecBody || len(b) < recHeaderLen+int(body) {
		return record{}, 0, false
	}
	p := b[recHeaderLen : recHeaderLen+int(body)]
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(b[4:8]) {
		return record{}, 0, false
	}
	typ := p[0]
	if typ != recPut && typ != recTomb {
		return record{}, 0, false
	}
	version := binary.LittleEndian.Uint64(p[1:9])
	keyLen := int(binary.LittleEndian.Uint16(p[9:11]))
	if recFixedLen+keyLen > int(body) || version == Latest ||
		(typ == recTomb && recFixedLen+keyLen != int(body)) {
		return record{}, 0, false
	}
	return record{
		typ:     typ,
		key:     string(p[11 : 11+keyLen]),
		version: version,
		value:   p[11+keyLen:],
	}, recHeaderLen + int(body), true
}

func segmentName(id uint64) string {
	return fmt.Sprintf("%010d.seg", id)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	id, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
	if err != nil || id == 0 {
		return 0, false
	}
	return id, true
}

// OpenLog opens (creating if needed) a log store rooted at dir and
// rebuilds the header index by replaying every segment in order.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	dirF, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open dir: %w", err)
	}
	l := &Log{
		dir:         dir,
		dirF:        dirF,
		opts:        opts,
		segs:        make(map[uint64]*segment),
		commitKick:  make(chan struct{}, 1),
		compactKick: make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		dirF.Close()
		return nil, fmt.Errorf("store: scan dir: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if id, ok := parseSegmentName(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		if err := l.replaySegment(id, i == len(ids)-1); err != nil {
			l.closeFiles()
			return nil, err
		}
	}
	if len(ids) == 0 {
		seg, err := l.createSegment(1)
		if err != nil {
			l.closeFiles()
			return nil, err
		}
		l.active = seg
	} else {
		l.active = l.segs[ids[len(ids)-1]]
		if l.active.size >= l.opts.SegmentMaxBytes {
			if err := l.seal(); err != nil {
				l.closeFiles()
				return nil, err
			}
		}
	}
	l.wg.Add(1)
	go l.compactLoop()
	if l.opts.Fsync {
		l.wg.Add(1)
		go l.commitLoop()
	}
	return l, nil
}

// Dir returns the store's root directory.
func (l *Log) Dir() string { return l.dir }

// replaySegment scans one segment sequentially, applying puts and
// tombstones to the index. A record that fails verification in the
// last segment is a torn tail: the file is truncated at the last good
// offset. Anywhere else it is corruption and replay fails.
func (l *Log) replaySegment(id uint64, last bool) error {
	path := filepath.Join(l.dir, segmentName(id))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: read segment: %w", err)
	}
	seg := &segment{id: id, f: f}
	l.segs[id] = seg
	l.segIDs = append(l.segIDs, id)
	off := 0
	for off < len(data) {
		rec, n, ok := parseRecord(data[off:])
		if !ok {
			if !last {
				return fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, id, off)
			}
			if err := f.Truncate(int64(off)); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
			break
		}
		switch k := hashKey(rec.key); rec.typ {
		case recPut:
			if e := l.idx.find(k); !e.has(rec.version) {
				l.idx.add(e, k, rec.version, recLoc{seg: id, off: int64(off), len: int64(n)})
				seg.live += int64(n)
			}
		case recTomb:
			l.dropIndexed(k, rec.version)
		}
		off += n
	}
	seg.size = int64(off)
	// The handle's write offset must sit at the replayed end (the file
	// was read separately), or appends would overwrite the head.
	if _, err := f.Seek(seg.size, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek segment end: %w", err)
	}
	return nil
}

// dropIndexed removes (key, version) from the index, if it is there,
// and discounts its record from the owning segment's live bytes. Caller
// holds mu.
func (l *Log) dropIndexed(k hkey, version uint64) {
	loc, ok := l.idx.remove(k, version)
	if !ok {
		return
	}
	if seg := l.segs[loc.seg]; seg != nil {
		seg.live -= loc.len
	}
}

// createSegment opens a fresh segment file and makes its directory
// entry durable. Caller holds mu (or is inside Open).
func (l *Log) createSegment(id uint64) (*segment, error) {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(id)), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create segment: %w", err)
	}
	if err := l.dirF.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: sync dir: %w", err)
	}
	seg := &segment{id: id, f: f}
	l.segs[id] = seg
	l.segIDs = append(l.segIDs, id)
	return seg, nil
}

// seal syncs the active segment and rolls to a new one. Caller holds
// mu.
func (l *Log) seal() error {
	if err := l.active.f.Sync(); err != nil {
		return fmt.Errorf("store: sync sealed segment: %w", err)
	}
	seg, err := l.createSegment(l.active.id + 1)
	if err != nil {
		return err
	}
	l.active = seg
	l.kickCompact()
	return nil
}

// appendLocked writes one encoded record to the active segment and
// rolls it when full. On a short write the segment is truncated back so
// the log stays parseable. Caller holds mu.
func (l *Log) appendLocked(rec []byte) (off int64, err error) {
	off = l.active.size
	if _, err := l.active.f.Write(rec); err != nil {
		_ = l.active.f.Truncate(off)
		_, _ = l.active.f.Seek(off, io.SeekStart)
		return 0, fmt.Errorf("store: append record: %w", err)
	}
	l.active.size += int64(len(rec))
	return off, nil
}

// enqueueDurable registers a group-commit waiter. Must be called while
// holding mu so Close cannot set closed between the append and the
// registration (it would strand the waiter).
func (l *Log) enqueueDurable() chan error {
	ch := make(chan error, 1)
	l.commitMu.Lock()
	l.waiters = append(l.waiters, ch)
	l.commitMu.Unlock()
	return ch
}

func (l *Log) kickCommit() {
	select {
	case l.commitKick <- struct{}{}:
	default:
	}
}

func (l *Log) kickCompact() {
	select {
	case l.compactKick <- struct{}{}:
	default:
	}
}

// validateRecord rejects a put the record format cannot represent: a
// record the parser would refuse must never be acknowledged — it would
// read back as corruption and poison replay.
func validateRecord(key string, value []byte) error {
	if err := CheckKey(key); err != nil {
		return err
	}
	if len(value) > maxRecBody-recFixedLen-len(key) {
		return fmt.Errorf("%w: value %d bytes (max %d)", ErrValueTooLarge, len(value), maxRecBody-recFixedLen-len(key))
	}
	return nil
}

// Put implements Store.
func (l *Log) Put(key string, version uint64, value []byte) error {
	if ReservedVersion(version) {
		return ErrBadVersion
	}
	if err := validateRecord(key, value); err != nil {
		return err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	k := hashKey(key)
	e := l.idx.find(k)
	if e.has(version) {
		// Idempotent re-put — but under Fsync the caller is being
		// told the object is durable, and the original record may
		// still be waiting on its group commit. Join it.
		var ch chan error
		if l.opts.Fsync {
			ch = l.enqueueDurable()
		}
		l.mu.Unlock()
		if ch == nil {
			return nil
		}
		l.kickCommit()
		return <-ch
	}
	rec := appendRecord(nil, recPut, key, version, value)
	off, err := l.appendLocked(rec)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.idx.add(e, k, version, recLoc{seg: l.active.id, off: off, len: int64(len(rec))})
	l.active.live += int64(len(rec))
	var sealErr error
	if l.active.size >= l.opts.SegmentMaxBytes {
		sealErr = l.seal()
	}
	var ch chan error
	if l.opts.Fsync {
		ch = l.enqueueDurable()
	}
	l.mu.Unlock()
	if sealErr != nil {
		return sealErr
	}
	if ch == nil {
		return nil
	}
	l.kickCommit()
	return <-ch
}

// PutBatch implements Store: the whole batch becomes one encoded
// append buffer written under a single lock acquisition, and — with
// Fsync — one group-commit waiter, so the cost of durability is paid
// once per batch instead of once per object.
func (l *Log) PutBatch(objs []Object) error {
	if len(objs) == 0 {
		return nil
	}
	for _, o := range objs {
		if ReservedVersion(o.Version) {
			return ErrBadVersion
		}
		if err := validateRecord(o.Key, o.Value); err != nil {
			return err
		}
	}
	type entry struct {
		key hkey
		ver uint64
		len int64
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	var buf []byte
	var entries []entry
	// flush appends the buffered records as one write, indexes them and
	// rolls the segment when full, so a batch larger than
	// SegmentMaxBytes still produces bounded segment files.
	flush := func() error {
		if len(entries) == 0 {
			return nil
		}
		off, err := l.appendLocked(buf)
		if err != nil {
			return err
		}
		for _, e := range entries {
			l.idx.add(l.idx.find(e.key), e.key, e.ver, recLoc{seg: l.active.id, off: off, len: e.len})
			l.active.live += e.len
			off += e.len
		}
		buf, entries = buf[:0], entries[:0]
		if l.active.size >= l.opts.SegmentMaxBytes {
			return l.seal()
		}
		return nil
	}
	inBatch := make(map[string]map[uint64]bool)
	for _, o := range objs {
		k := hashKey(o.Key)
		if l.idx.find(k).has(o.Version) {
			continue // idempotent re-put
		}
		if inBatch[o.Key][o.Version] {
			continue // duplicate within the batch
		}
		if inBatch[o.Key] == nil {
			inBatch[o.Key] = make(map[uint64]bool, 1)
		}
		inBatch[o.Key][o.Version] = true
		if len(buf) > 0 && l.active.size+int64(len(buf)) >= l.opts.SegmentMaxBytes {
			if err := flush(); err != nil {
				l.mu.Unlock()
				return err
			}
		}
		before := len(buf)
		buf = appendRecord(buf, recPut, o.Key, o.Version, o.Value)
		entries = append(entries, entry{key: k, ver: o.Version, len: int64(len(buf) - before)})
	}
	if err := flush(); err != nil {
		l.mu.Unlock()
		return err
	}
	var ch chan error
	if l.opts.Fsync {
		// One waiter covers the batch: every record was appended before
		// the committer's next fsync of the active segment (records
		// behind a mid-batch seal were synced by the seal itself). An
		// all-duplicate batch still joins the group commit, like Put.
		ch = l.enqueueDurable()
	}
	l.mu.Unlock()
	if ch == nil {
		return nil
	}
	l.kickCommit()
	return <-ch
}

// Get implements Store. The record is re-verified against its checksum
// on every read, so a torn or rotted record is reported as ErrCorrupt
// rather than served.
func (l *Log) Get(key string, version uint64) ([]byte, uint64, bool, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return nil, 0, false, ErrClosed
	}
	loc, v, ok := l.idx.get(hashKey(key), version)
	if !ok {
		return nil, 0, false, nil
	}
	buf := make([]byte, loc.len)
	if _, err := l.segs[loc.seg].f.ReadAt(buf, loc.off); err != nil {
		return nil, 0, false, fmt.Errorf("store: read record: %w", err)
	}
	rec, _, ok := parseRecord(buf)
	if !ok || rec.typ != recPut || rec.key != key || rec.version != v {
		return nil, 0, false, fmt.Errorf("%w: %q version %d", ErrCorrupt, key, v)
	}
	return rec.value, v, true, nil
}

// Versions implements Store.
func (l *Log) Versions(key string) ([]uint64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return nil, ErrClosed
	}
	return l.idx.versionsOf(key), nil
}

// Delete implements Store. It appends a tombstone record so the delete
// survives restarts, then drops the version from the index. Version
// Latest resolves to the newest stored version, mirroring Get; the
// tombstone always carries the resolved concrete version.
func (l *Log) Delete(key string, version uint64) (bool, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false, ErrClosed
	}
	k := hashKey(key)
	_, version, ok := l.idx.get(k, version)
	if !ok {
		l.mu.Unlock()
		return false, nil
	}
	rec := appendRecord(nil, recTomb, key, version, nil)
	if _, err := l.appendLocked(rec); err != nil {
		l.mu.Unlock()
		return false, err
	}
	l.dropIndexed(k, version)
	var sealErr error
	if l.active.size >= l.opts.SegmentMaxBytes {
		sealErr = l.seal()
	}
	var ch chan error
	if l.opts.Fsync {
		ch = l.enqueueDurable()
	}
	l.mu.Unlock()
	l.kickCompact()
	if sealErr != nil {
		return false, sealErr
	}
	if ch == nil {
		return true, nil
	}
	l.kickCommit()
	if err := <-ch; err != nil {
		return false, err
	}
	return true, nil
}

// DeleteBatch implements Store: every tombstone is appended under one
// lock acquisition and ONE group-commit fsync covers the whole batch —
// the same asymmetry-removal PutBatch provides for writes. Latest
// resolves per item against the not-yet-deleted state, so two Latest
// items for one key remove its two newest versions.
func (l *Log) DeleteBatch(items []Deletion) ([]bool, error) {
	existed := make([]bool, len(items))
	if len(items) == 0 {
		return existed, nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return existed, ErrClosed
	}
	var rec []byte
	appended := false
	for i, it := range items {
		k := hashKey(it.Key)
		_, version, ok := l.idx.get(k, it.Version)
		if !ok {
			continue
		}
		// Append before dropping the index entry (crash ordering: a
		// tombstone may exist without the drop, never the reverse).
		rec = appendRecord(rec[:0], recTomb, it.Key, version, nil)
		if _, err := l.appendLocked(rec); err != nil {
			l.mu.Unlock()
			l.kickCompact()
			return existed, err
		}
		l.dropIndexed(k, version)
		existed[i] = true
		appended = true
		if l.active.size >= l.opts.SegmentMaxBytes {
			if err := l.seal(); err != nil {
				l.mu.Unlock()
				l.kickCompact()
				return existed, err
			}
		}
	}
	var ch chan error
	if l.opts.Fsync && appended {
		// No tombstone appended → nothing to make durable; skipping the
		// group-commit wait keeps an all-absent batch (a DEL of missing
		// keys) from stalling the caller for a full fsync.
		ch = l.enqueueDurable()
	}
	l.mu.Unlock()
	l.kickCompact()
	if ch == nil {
		return existed, nil
	}
	l.kickCommit()
	if err := <-ch; err != nil {
		return existed, err
	}
	return existed, nil
}

// StreamObjects implements Store: the repair read path. Each record is
// read straight from its segment offset into ONE scratch buffer reused
// across the whole stream — no per-object allocation, no whole-record
// copy handed out (fn sees the value sub-slice of the scratch) — and
// re-verified against its CRC32 before it is served. A record that
// fails verification (bit rot under a live index entry) or cannot be
// read is counted in corrupt and skipped, so anti-entropy ships the
// healthy objects of a push instead of aborting on the first bad one;
// Get on the same pair still reports ErrCorrupt for operators. The
// store lock is held only for the index lookup and the segment read,
// never across fn.
func (l *Log) StreamObjects(refs []Ref, fn func(o Object) bool) (int, error) {
	corrupt := 0
	var scratch []byte
	for _, r := range refs {
		l.mu.RLock()
		if l.closed {
			l.mu.RUnlock()
			return corrupt, ErrClosed
		}
		var loc recLoc
		ok := false
		if e := l.idx.find(hashKey(r.Key)); e != nil {
			loc, ok = e.vals[r.Version]
		}
		if !ok {
			l.mu.RUnlock()
			continue
		}
		if int64(cap(scratch)) < loc.len {
			scratch = make([]byte, loc.len)
		}
		buf := scratch[:loc.len]
		_, err := l.segs[loc.seg].f.ReadAt(buf, loc.off)
		l.mu.RUnlock()
		if err != nil {
			corrupt++
			continue
		}
		rec, _, pok := parseRecord(buf)
		if !pok || rec.typ != recPut || rec.key != r.Key || rec.version != r.Version {
			corrupt++
			continue
		}
		if !fn(Object{Key: r.Key, Version: r.Version, Value: rec.value}) {
			return corrupt, nil
		}
	}
	return corrupt, nil
}

// ForEach implements Store.
func (l *Log) ForEach(fn func(key string, version uint64) bool) error {
	return l.ForEachIn(AllRanges(), fn)
}

// ForEachIn implements Store.
func (l *Log) ForEachIn(ranges RangeSet, fn func(key string, version uint64) bool) error {
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return ErrClosed
	}
	snapshot := l.idx.snapshot(ranges)
	l.mu.RUnlock()
	snapshot.visit(fn)
	return nil
}

// RangeSums implements Store.
func (l *Log) RangeSums() RangeSums {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.sums
}

// Count implements Store.
func (l *Log) Count() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.count
}

// SegmentCount returns how many segment files the log currently has
// (including the active one). Exposed for tests and metrics.
func (l *Log) SegmentCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.segIDs)
}

// Stats implements StatsProvider: segment count, the live/dead byte
// split compaction works from, and how many passes have rewritten
// segments so far.
func (l *Log) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s := Stats{Segments: len(l.segIDs), CompactionPasses: l.compactPasses}
	for _, seg := range l.segs {
		s.LiveBytes += seg.live
		s.DeadBytes += seg.size - seg.live
	}
	return s
}

// commitLoop is the group committer: it turns any number of pending
// durability waiters into one fsync of the active segment.
func (l *Log) commitLoop() {
	defer l.wg.Done()
	for {
		select {
		case <-l.stop:
			return
		case <-l.commitKick:
		}
		l.commitMu.Lock()
		ws := l.waiters
		l.waiters = nil
		l.commitMu.Unlock()
		if len(ws) == 0 {
			continue
		}
		// Every waiter in ws appended before this point, to the current
		// active file or to one already synced by a seal, so one fsync
		// of the active file covers the batch. The sync runs outside mu
		// so writers keep appending meanwhile, growing the next batch.
		l.mu.RLock()
		f := l.active.f
		l.mu.RUnlock()
		err := f.Sync()
		if err != nil && errors.Is(err, os.ErrClosed) {
			// The snapshot raced with a seal + compaction: the file was
			// sealed (synced) and then compacted away. Both paths made
			// every waiter's record durable before closing it.
			err = nil
		}
		for _, ch := range ws {
			ch <- err
		}
	}
}

// compactLoop runs segment compaction in the background whenever a
// seal or delete suggests dead bytes may have accumulated.
func (l *Log) compactLoop() {
	defer l.wg.Done()
	for {
		select {
		case <-l.stop:
			return
		case <-l.compactKick:
		}
		l.compactOnce()
	}
}

// Compact forces one synchronous compaction evaluation. The background
// loop calls the same logic; tests and operators can call it directly.
func (l *Log) Compact() error { return l.compactOnce() }

// CompactionErr returns the error of the most recent compaction pass
// (nil when it succeeded). Background compaction has no caller to
// report to, so failures — ENOSPC, I/O errors, a corrupt sealed
// segment — are surfaced here instead of disappearing.
func (l *Log) CompactionErr() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.compactErr
}

func (l *Log) compactOnce() error {
	l.compactMu.Lock()
	err := l.compactPass()
	l.compactMu.Unlock()
	l.mu.Lock()
	l.compactErr = err
	l.mu.Unlock()
	return err
}

// compactRec is one put record's location inside a candidate segment.
type compactRec struct {
	key string
	ver uint64
	loc recLoc
}

// compactSeg is one candidate segment at snapshot time.
type compactSeg struct {
	seg  *segment
	id   uint64
	size int64
}

// compactBatchBytes bounds how many copied bytes are swapped per
// write-lock critical section, keeping each foreground stall to one
// small buffered write instead of a whole segment rewrite.
const compactBatchBytes = 64 << 10

// compactPass runs one compaction evaluation. Only the snapshot, the
// per-batch swap and the final bookkeeping trim take the store lock —
// every segment read, record copy and throttle sleep happens with no
// lock held, so foreground operations proceed while the pass churns.
func (l *Log) compactPass() error {
	candidates := l.compactCandidates()
	if len(candidates) == 0 {
		return nil
	}
	l.mu.Lock()
	l.compactPasses++
	l.mu.Unlock()
	for _, cs := range candidates {
		if err := l.copyLive(cs); err != nil {
			return err
		}
	}
	// New copies must be durable before the old ones disappear. Every
	// copy went to the current active file or to one already synced by
	// a seal, so one fsync covers them all (same invariant as the
	// group committer).
	l.mu.RLock()
	closed, f := l.closed, l.active.f
	l.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync compacted records: %w", err)
	}
	// Remove in ascending order, syncing the directory after each
	// unlink: the filesystem does not persist un-fsynced directory
	// updates in issue order, and a crash that keeps a put's segment
	// while losing its tombstone's would resurrect deleted data. With
	// the per-remove sync, a surviving tombstone may at worst point at
	// an already-removed put (harmless). Bookkeeping is trimmed per
	// segment — under a short write lock, with the unlink itself
	// outside — so an error return leaves segs and segIDs consistent
	// for the next pass.
	for _, cs := range candidates {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		seg := l.segs[cs.id]
		if seg == nil {
			l.mu.Unlock()
			continue
		}
		if seg.live != 0 {
			// Nothing appends to a sealed segment, so a drained
			// candidate must have no live bytes; anything else is a
			// bookkeeping bug and removal would lose data.
			l.mu.Unlock()
			return fmt.Errorf("store: segment %d still has %d live bytes after compaction", cs.id, seg.live)
		}
		delete(l.segs, cs.id)
		l.segIDs = l.segIDs[1:] // prefix sits at the front
		l.mu.Unlock()
		// os.File tolerates a concurrent Sync from the group committer:
		// the loser observes os.ErrClosed, which the committer maps to
		// success (sealing already synced this file).
		seg.f.Close()
		err := os.Remove(filepath.Join(l.dir, segmentName(cs.id)))
		if err == nil {
			err = l.dirF.Sync()
		}
		if err != nil {
			return fmt.Errorf("store: remove compacted segment %d: %w", cs.id, err)
		}
	}
	return nil
}

// compactCandidates picks, under a brief read lock, the candidate
// prefix: a downward-closed prefix of the sealed segments, up to the
// newest one below the live-ratio threshold. The prefix property is
// what makes dropping tombstones safe: a tombstone's target put is
// always in the same or an earlier segment. Only segment metadata is
// snapshotted — the record set is derived lock-free from the segment
// bytes in copyLive, and liveness is decided per batch against the
// current index in relocateBatch.
func (l *Log) compactCandidates() []*compactSeg {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed || l.opts.CompactLiveRatio < 0 {
		return nil
	}
	cut := -1
	for i, id := range l.segIDs {
		if id == l.active.id {
			break
		}
		seg := l.segs[id]
		if seg.size > 0 && float64(seg.live)/float64(seg.size) < l.opts.CompactLiveRatio {
			cut = i
		}
	}
	if cut < 0 {
		return nil
	}
	out := make([]*compactSeg, 0, cut+1)
	for _, id := range l.segIDs[:cut+1] {
		out = append(out, &compactSeg{seg: l.segs[id], id: id, size: l.segs[id].size})
	}
	return out
}

// copyLive reads one candidate segment with no lock held, parses its
// put records (a sealed segment is immutable, so the unlocked read and
// parse are stable, and the CRC walk reports rot instead of silently
// propagating it) and re-appends the live ones to the active segment
// in bounded batches. The read is chunked with the throttle charged
// before each chunk — so the rate cap paces the disk I/O spike itself,
// not just work already done — and each swap batch charges the bytes
// it copied, so a rate-limited pass alternates short bursts with
// sleeps instead of lumping one long stall.
func (l *Log) copyLive(cs *compactSeg) error {
	if cs.size == 0 {
		return nil
	}
	data := make([]byte, cs.size)
	for off := int64(0); off < cs.size; {
		n := cs.size - off
		if n > compactBatchBytes {
			n = compactBatchBytes
		}
		l.throttleCompact(int(n))
		if _, err := cs.seg.f.ReadAt(data[off:off+n], off); err != nil {
			return fmt.Errorf("store: read segment %d: %w", cs.id, err)
		}
		off += n
	}
	var recs []compactRec
	var off int64
	for off < cs.size {
		rec, n, ok := parseRecord(data[off:])
		if !ok {
			return fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, cs.id, off)
		}
		if rec.typ == recPut {
			recs = append(recs, compactRec{
				key: rec.key, ver: rec.version,
				loc: recLoc{seg: cs.id, off: off, len: int64(n)},
			})
		}
		off += int64(n)
	}
	if len(recs) == 0 {
		return nil // tombstone-only segment: read already charged
	}
	var batch []compactRec
	var spanStart int64
	flush := func(spanEnd int64) error {
		if len(batch) == 0 {
			return nil
		}
		copied, err := l.relocateBatch(cs, data, batch)
		if err != nil {
			return err
		}
		l.throttleCompact(int(copied))
		batch, spanStart = batch[:0], spanEnd
		return nil
	}
	for _, r := range recs {
		batch = append(batch, r)
		if end := r.loc.off + r.loc.len; end-spanStart >= compactBatchBytes {
			if err := flush(end); err != nil {
				return err
			}
		}
	}
	return flush(cs.size)
}

// relocateBatch revalidates one batch of parsed records against the
// current index and appends the survivors to the active segment — the
// only write-lock critical section of the copy loop. A record that is
// superseded, deleted, or dropped mid-flight simply stays behind in
// the doomed segment. Returns the bytes copied.
func (l *Log) relocateBatch(cs *compactSeg, data []byte, batch []compactRec) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	var buf []byte
	type keptRec struct {
		e   *indexKey[recLoc]
		ver uint64
		len int64
	}
	kept := make([]keptRec, 0, len(batch))
	for _, r := range batch {
		e := l.idx.find(hashKey(r.key))
		if e == nil {
			continue
		}
		if loc, live := e.vals[r.ver]; !live || loc != r.loc {
			continue
		}
		buf = append(buf, data[r.loc.off:r.loc.off+r.loc.len]...)
		kept = append(kept, keptRec{e: e, ver: r.ver, len: r.loc.len})
	}
	if len(buf) == 0 {
		return 0, nil
	}
	off, err := l.appendLocked(buf)
	if err != nil {
		return 0, err
	}
	// A relocation moves a record, not a header: the range sums stand.
	for _, r := range kept {
		r.e.vals[r.ver] = recLoc{seg: l.active.id, off: off, len: r.len}
		l.active.live += r.len
		cs.seg.live -= r.len
		off += r.len
	}
	copied := int64(len(buf))
	if l.active.size >= l.opts.SegmentMaxBytes {
		return copied, l.seal()
	}
	return copied, nil
}

// throttleCompact sleeps long enough to keep compaction I/O under
// CompactRateBytesPerSec. Closing the store interrupts the sleep so a
// heavily throttled pass cannot delay shutdown.
func (l *Log) throttleCompact(n int) {
	rate := l.opts.CompactRateBytesPerSec
	if rate <= 0 || n <= 0 {
		return
	}
	d := time.Duration(int64(time.Second) * int64(n) / rate)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-l.stop:
	case <-t.C:
	}
}

// Close implements Store. Pending group-commit waiters receive the
// result of one final fsync.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	l.wg.Wait()
	// A directly invoked Compact may still be mid-pass; closed and the
	// stop channel make it bail out fast, and holding compactMu here
	// keeps the file handles it touches valid until it has.
	l.compactMu.Lock()
	l.compactMu.Unlock()
	// No new waiters can register once closed is set (registration
	// happens under mu), so this drain is complete.
	l.commitMu.Lock()
	ws := l.waiters
	l.waiters = nil
	l.commitMu.Unlock()
	err := l.active.f.Sync()
	for _, ch := range ws {
		ch <- err
	}
	l.closeFiles()
	l.idx = rangeIndex[recLoc]{}
	return err
}

func (l *Log) closeFiles() {
	for _, seg := range l.segs {
		seg.f.Close()
	}
	l.dirF.Close()
}
