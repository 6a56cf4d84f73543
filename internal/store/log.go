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
// Every write is one record batch through one writer (write): PutBatch
// and DeleteBatch encode their put or tombstone records into one buffer,
// append it as one sequential write and file the records in the index
// after the append; Put is a PutBatch of one. With Fsync enabled,
// concurrent writers coalesce into a single fsync (group commit), and
// the writers run it themselves: each batch takes a ticket under the log
// lock after its append, and a writer that finds no fsync in flight
// syncs the active segment once for every ticket issued before the sync
// began — the group is whoever appended while the previous fsync was in
// flight. Deletes append tombstone records so they survive restarts.
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
// foreground write and read paths never stall behind segment-sized
// I/O: live record locations are snapshotted under a brief read lock,
// segment reads and the copy loop run with no lock held (throttled by
// CompactRateBytesPerSec), each copied batch is revalidated against
// the current index under a short write lock before the swap, and
// records deleted mid-flight are simply discarded.
//
// Safe for concurrent use.
type Log struct {
	lockedIndex[recLoc]

	dir  string
	dirF *os.File
	opts LogOptions

	segs   map[uint64]*segment
	segIDs []uint64 // ascending; last is the active segment
	active *segment

	// compactErr is the result of the most recent compaction pass; the
	// background loop has no caller to return it to.
	compactErr error
	// compactPasses counts passes that found candidates and rewrote
	// them (Stats), guarded by mu like the rest of the bookkeeping.
	compactPasses uint64
	// compactMu serializes compaction passes (the background loop and
	// direct Compact calls) without blocking the store lock.
	compactMu sync.Mutex

	// wbuf is write's encoding buffer, kept between writes while it is
	// at most wbufKeep bytes. Guarded by mu.
	wbuf []byte
	// tickets counts the durable writes issued so far; ticket t is the
	// t-th. Guarded by mu, so a ticket is never older than its append.
	tickets uint64
	// commit is the group-commit state (see awaitSync).
	commit groupCommit

	compactKick chan struct{}
	stop        chan struct{}
	wg          sync.WaitGroup
}

var _ Store = (*Log)(nil)
var _ StatsProvider = (*Log)(nil)

// LogOptions tunes the log engine. The zero value is a working
// configuration: no fsync, 64 MiB segments, compaction below 50% live.
type LogOptions struct {
	// Fsync makes every write block until its records are on stable
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

// recordLen is the encoded size of a record of key and value.
func recordLen(key string, value []byte) int {
	return recHeaderLen + recFixedLen + len(key) + len(value)
}

func appendRecord(dst []byte, typ byte, key string, version uint64, value []byte) []byte {
	n := recordLen(key, value)
	start := len(dst)
	dst = append(dst, make([]byte, n)...)
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(n-recHeaderLen))
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
		compactKick: make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	l.commit.init()
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
	return l, nil
}

// Dir returns the store's root directory.
func (l *Log) Dir() string { return l.dir }

// replaySegment scans one segment with scanSegment, applying puts and
// tombstones to the index. A record that fails verification in the
// last segment is a torn tail: the file is truncated at the verified
// end. Anywhere else it is corruption and replay fails.
func (l *Log) replaySegment(id uint64, last bool) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(id)), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	seg := &segment{id: id, f: f}
	l.segs[id] = seg
	l.segIDs = append(l.segIDs, id)
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat segment: %w", err)
	}
	end, err := scanSegment(f.ReadAt, fi.Size(), 0, func(_ int64, _ []byte, recs []segRec) error {
		for _, r := range recs {
			switch k := hashKey(r.key); r.typ {
			case recPut:
				if e := l.idx.find(k); !e.has(r.version) {
					l.idx.add(e, k, r.version, recLoc{seg: id, off: r.off, len: r.len})
					seg.live += r.len
				}
			case recTomb:
				l.dropIndexed(k, r.version)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: read segment %d: %w", id, err)
	}
	if end < fi.Size() {
		if !last {
			return fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, id, end)
		}
		if err := f.Truncate(end); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	seg.size = end
	// The handle's write offset must sit at the replayed end (the scan
	// read by offset), or appends would overwrite the head.
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

func (l *Log) kickCompact() {
	select {
	case l.compactKick <- struct{}{}:
	default:
	}
}

// logRec is one record of a write batch: a put of value under
// (key, version), or a tombstone of a resolved concrete version.
type logRec struct {
	typ     byte
	k       hkey
	version uint64
	value   []byte
}

// smallBatch is how many records a batch stages without allocating:
// every Put, and the short windows a shard commits, fit.
const smallBatch = 8

// write is the log's one writer, behind PutBatch and DeleteBatch. It
// encodes recs into the log's buffer and appends it — split where the
// active segment fills, so a batch larger than SegmentMaxBytes still
// rolls bounded segment files — and files each record after its append:
// a put in the index, a tombstone as the drop of its target (crash
// ordering: a record may exist without its filing, never the reverse).
// With Fsync the batch takes one ticket — records behind a mid-batch
// seal were synced by the seal — when a record was written or wait asks
// for it, and waits for its group commit (awaitSync). The caller holds
// mu; write releases it before waiting. filed counts the records filed,
// a prefix of recs.
func (l *Log) write(recs []logRec, wait bool) (filed int, err error) {
	buf := l.wbuf[:0]
	// flush appends buf, the encoding of recs[filed:to], as one write,
	// files those records and rolls the segment once it is full.
	flush := func(to int) error {
		off, err := l.appendLocked(buf)
		if err != nil {
			return err
		}
		for _, r := range recs[filed:to] {
			n := int64(recordLen(r.k.key, r.value))
			if r.typ == recTomb {
				l.dropIndexed(r.k, r.version)
			} else {
				l.idx.add(l.idx.find(r.k), r.k, r.version, recLoc{seg: l.active.id, off: off, len: n})
				l.active.live += n
			}
			off += n
		}
		buf, filed = buf[:0], to
		if l.active.size >= l.opts.SegmentMaxBytes {
			return l.seal()
		}
		return nil
	}
	for i, r := range recs {
		if len(buf) > 0 && l.active.size+int64(len(buf)) >= l.opts.SegmentMaxBytes {
			if err = flush(i); err != nil {
				break
			}
		}
		buf = appendRecord(buf, r.typ, r.k.key, r.version, r.value)
	}
	if err == nil && len(buf) > 0 {
		err = flush(len(recs))
	}
	if cap(buf) <= wbufKeep {
		l.wbuf = buf[:0]
	} else {
		l.wbuf = nil
	}
	var ticket uint64
	if err == nil && l.opts.Fsync && (filed > 0 || wait) {
		l.tickets++
		ticket = l.tickets
	}
	l.mu.Unlock()
	if ticket > 0 {
		err = l.awaitSync(ticket)
	}
	return filed, err
}

// wbufKeep bounds the encoding buffer a Log keeps between writes: a
// larger batch encodes into a buffer that is dropped after it, so one
// big write does not pin its size for the life of the store.
const wbufKeep = 1 << 20

// groupCommit is the log's fsync schedule. One sync runs at a time
// (leadSync), led by a waiting writer (awaitSync) or by Close, and
// tickets settle in order: done is the newest ticket a finished sync
// covered, and a sync covers every ticket issued before it began. A
// failed sync leaves its error for exactly the tickets it covered.
type groupCommit struct {
	mu      sync.Mutex
	cond    sync.Cond // broadcast when a sync settles
	syncing bool
	done    uint64
	failed  []syncFailure
	// syncs counts the syncs that settled tickets, synced the tickets
	// they settled (Stats).
	syncs, synced uint64
	// syncFile is the fsync itself: (*os.File).Sync, or a test's seam.
	syncFile func(*os.File) error
}

// syncFailure is one failed sync: its error, the tickets (lo, hi] it
// covered and how many of their writers have yet to collect it.
type syncFailure struct {
	lo, hi, left uint64
	err          error
}

func (c *groupCommit) init() {
	c.cond.L = &c.mu
	c.syncFile = (*os.File).Sync
}

// awaitSync returns once ticket t has settled, with the error of the
// sync that covered it. A writer that finds no sync in flight leads one
// itself; otherwise it waits for the one in flight — which began before
// t was issued if t is not yet settled when it ends — and tries again.
func (l *Log) awaitSync(t uint64) error {
	c := &l.commit
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.done < t {
		if c.syncing {
			c.cond.Wait()
		} else {
			l.leadSync()
		}
	}
	return c.collect(t)
}

// leadSync runs the next sync and settles every ticket it covered: all
// those issued before it began. Each of their writes appended to the
// active file or to one a seal already synced, so one fsync of the
// active file covers them all. It runs outside both locks, so writers
// keep appending meanwhile, growing the next group. The caller holds
// c.mu, with no sync in flight.
func (l *Log) leadSync() error {
	c := &l.commit
	c.syncing = true
	c.mu.Unlock()
	l.mu.RLock()
	hi, f := l.tickets, l.active.f
	l.mu.RUnlock()
	err := c.syncFile(f)
	if errors.Is(err, os.ErrClosed) {
		// The snapshot raced with a seal + compaction: the file was
		// sealed (synced) and then compacted away. Both paths made every
		// covered record durable before closing it.
		err = nil
	}
	c.mu.Lock()
	c.settle(hi, err)
	return err
}

// settle records a finished sync that covered every ticket up to hi and
// wakes the writers waiting on it. Caller holds c.mu and ran the sync.
func (c *groupCommit) settle(hi uint64, err error) {
	if hi > c.done {
		if err != nil {
			c.failed = append(c.failed, syncFailure{lo: c.done, hi: hi, left: hi - c.done, err: err})
		}
		c.syncs++
		c.synced += hi - c.done
		c.done = hi
	}
	c.syncing = false
	c.cond.Broadcast()
}

// collect returns the error the settled ticket t's sync left for it.
// Caller holds c.mu.
func (c *groupCommit) collect(t uint64) error {
	for i := range c.failed {
		f := &c.failed[i]
		if t <= f.lo || t > f.hi {
			continue
		}
		err := f.err
		f.left--
		if f.left == 0 {
			c.failed = append(c.failed[:i], c.failed[i+1:]...)
		}
		return err
	}
	return nil
}

// Put implements Store: a batch of one.
func (l *Log) Put(key string, version uint64, value []byte) error {
	return l.PutBatch([]Object{{Key: key, Version: version, Value: value}})
}

// PutBatch implements Store: the objects not yet stored, each pair
// once, become one write. A batch with nothing new still joins the
// group commit under Fsync: the caller is being told its objects are
// durable, and their records may still be waiting on theirs.
func (l *Log) PutBatch(objs []Object) error {
	for _, o := range objs {
		if err := CheckObject(o.Key, o.Version, o.Value); err != nil {
			return err
		}
	}
	if len(objs) == 0 {
		return nil
	}
	var staged map[Ref]bool // pairs already in recs; a batch of one needs none
	if len(objs) > 1 {
		staged = make(map[Ref]bool, len(objs))
	}
	var small [smallBatch]logRec
	recs := small[:0]
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	for _, o := range objs {
		k, ref := hashKey(o.Key), Ref{Key: o.Key, Version: o.Version}
		if staged[ref] || l.idx.find(k).has(o.Version) {
			continue
		}
		if staged != nil {
			staged[ref] = true
		}
		recs = append(recs, logRec{typ: recPut, k: k, version: o.Version, value: o.Value})
	}
	_, err := l.write(recs, true)
	return err
}

// DeleteBatch implements Store: every item that names a stored pair
// becomes a tombstone of one write. A Latest item resolves to the newest
// version the batch does not already delete.
func (l *Log) DeleteBatch(items []Deletion) ([]bool, error) {
	existed := make([]bool, len(items))
	if len(items) == 0 {
		return existed, nil
	}
	var staged map[Ref]bool // pairs already tombstoned in recs
	if len(items) > 1 {
		staged = make(map[Ref]bool, len(items))
	}
	var small [smallBatch]logRec
	recs := small[:0]
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return existed, ErrClosed
	}
	for i, it := range items {
		k, ref, ok := hashKey(it.Key), Ref{Key: it.Key, Version: it.Version}, false
		if e := l.idx.find(k); e != nil && ref.Version == Latest {
			for j := len(e.versions) - 1; j >= 0 && !ok; j-- {
				ref.Version = e.versions[j]
				ok = !staged[ref]
			}
		} else {
			ok = e.has(ref.Version) && !staged[ref]
		}
		if !ok {
			continue
		}
		if staged != nil {
			staged[ref] = true
		}
		existed[i] = true
		recs = append(recs, logRec{typ: recTomb, k: k, version: ref.Version})
	}
	// No tombstone → nothing to make durable: an all-absent batch (a DEL
	// of missing keys) does not stall its caller for a full fsync.
	filed, err := l.write(recs, false)
	l.kickCompact()
	for i := range existed {
		// Records were staged in item order: the filed prefix is what
		// the batch removed.
		if existed[i] {
			existed[i] = filed > 0
			filed--
		}
	}
	return existed, err
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
	value, ok := locatedValue(buf, key, v)
	if !ok {
		return nil, 0, false, fmt.Errorf("%w: %q version %d", ErrCorrupt, key, v)
	}
	return value, v, true, nil
}

// locatedValue verifies a record read from its index location — it
// must parse, be a put and carry (key, version) — and returns its
// value, which aliases buf.
func locatedValue(buf []byte, key string, version uint64) ([]byte, bool) {
	rec, _, ok := parseRecord(buf)
	if !ok || rec.typ != recPut || rec.key != key || rec.version != version {
		return nil, false
	}
	return rec.value, true
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
		value, ok := locatedValue(buf, r.Key, r.Version)
		if !ok {
			corrupt++
			continue
		}
		if !fn(Object{Key: r.Key, Version: r.Version, Value: value}) {
			return corrupt, nil
		}
	}
	return corrupt, nil
}

// SegmentCount returns how many segment files the log currently has
// (including the active one). Exposed for tests and metrics.
func (l *Log) SegmentCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.segIDs)
}

// Stats implements StatsProvider: segment count, the live/dead byte
// split compaction works from, how many passes have rewritten segments
// so far, and the group commit's fsyncs and the writes they covered.
func (l *Log) Stats() Stats {
	l.mu.RLock()
	s := Stats{Segments: len(l.segIDs), CompactionPasses: l.compactPasses}
	for _, seg := range l.segs {
		s.LiveBytes += seg.live
		s.DeadBytes += seg.size - seg.live
	}
	l.mu.RUnlock()
	l.commit.mu.Lock()
	s.Syncs, s.SyncedWrites = l.commit.syncs, l.commit.synced
	l.commit.mu.Unlock()
	return s
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

// compactSeg is one candidate segment at snapshot time.
type compactSeg struct {
	seg  *segment
	id   uint64
	size int64
}

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
	// group commit's leadSync).
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
		// os.File tolerates a concurrent Sync from a group commit: the
		// loser observes os.ErrClosed, which leadSync maps to
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

// copyLive walks one candidate segment with scanSegment and no lock
// held (a sealed segment is immutable, so the unlocked read is stable,
// and the verified walk reports rot instead of silently propagating
// it), re-appending each window's live put records to the active
// segment as one batch. The throttle is charged before each window's
// read — so the rate cap paces the disk I/O spike itself, not just work
// already done — and again for the bytes each batch copied, so a
// rate-limited pass alternates short bursts with sleeps instead of
// lumping one long stall. A record that fails verification fails the
// pass with ErrCorrupt: the windows before it stay relocated, which is
// safe because a candidate is only removed after the whole pass
// succeeded.
func (l *Log) copyLive(cs *compactSeg) error {
	read := func(p []byte, off int64) (int, error) {
		l.throttleCompact(len(p))
		return cs.seg.f.ReadAt(p, off)
	}
	end, err := scanSegment(read, cs.size, 0, func(base int64, data []byte, recs []segRec) error {
		copied, err := l.relocateBatch(cs, base, data, recs)
		l.throttleCompact(int(copied))
		return err
	})
	if err != nil {
		return err
	}
	if end < cs.size {
		return fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, cs.id, end)
	}
	return nil
}

// relocateBatch revalidates one window's records against the current
// index and appends the live puts to the active segment — the only
// write-lock critical section of the copy loop, so each foreground
// stall is one window's buffered write, not a whole segment rewrite. A
// record that is superseded, deleted, or dropped mid-flight simply
// stays behind in the doomed segment. data is the window at segment
// offset base. Returns the bytes copied.
func (l *Log) relocateBatch(cs *compactSeg, base int64, data []byte, recs []segRec) (int64, error) {
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
	kept := make([]keptRec, 0, len(recs))
	for _, r := range recs {
		if r.typ != recPut {
			continue
		}
		e := l.idx.find(hashKey(r.key))
		if e == nil {
			continue
		}
		if loc, live := e.vals[r.version]; !live || loc != (recLoc{seg: cs.id, off: r.off, len: r.len}) {
			continue
		}
		buf = append(buf, data[r.off-base:r.off-base+r.len]...)
		kept = append(kept, keptRec{e: e, ver: r.version, len: r.len})
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

// Close implements Store. Writers still waiting for their group commit
// receive the result of one final fsync.
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
	// No ticket is issued once closed is set, so the final sync — it
	// takes its turn after the one in flight, if any — settles every
	// ticket left, and no sync runs once the files close.
	c := &l.commit
	c.mu.Lock()
	for c.syncing {
		c.cond.Wait()
	}
	err := l.leadSync()
	c.mu.Unlock()
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
