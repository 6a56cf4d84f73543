package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Segment streaming: the bulk-transfer read path behind bootstrap and
// snapshots. The log engine streams its sealed segment files verbatim
// — chunked reads into one reused buffer, every record re-verified
// against its CRC32 before a byte is handed out, chunks aligned to
// record boundaries so each one parses on its own. The memory engine
// has no segment files; it emulates the contract object-at-a-time by
// encoding its whole object set into the same record format as one
// synthetic segment, so a receiver never needs to know which engine the
// sender runs.

// streamChunkBytes is the target chunk size of a segment stream —
// large enough to amortize syscalls, small enough that a receiver can
// apply and checkpoint chunk by chunk (and that one chunk fits a wire
// message comfortably).
const streamChunkBytes = 64 << 10

// syntheticSegmentID is the id of the single whole-store segment the
// memory engine synthesizes.
const syntheticSegmentID = 1

// Seal syncs and rolls the log's active segment so every record
// written so far joins the sealed, streamable set. Snapshots call it
// to make a point-in-time capture complete; an empty active segment is
// left in place.
func (l *Log) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.active.size == 0 {
		return nil
	}
	return l.seal()
}

// Segments implements Store: the manifest of sealed segment files in
// ascending id order. A sealed segment is immutable, so its manifest
// entry (record count, CRC of the full stream, key range) is computed
// by one verified walk and cached on the segment; later calls are
// index-speed. Segments compacted away between the snapshot and the
// walk are simply absent from the result.
func (l *Log) Segments() ([]SegmentInfo, error) {
	type sealedSeg struct {
		id     uint64
		size   int64
		cached *SegmentInfo
	}
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return nil, ErrClosed
	}
	list := make([]sealedSeg, 0, len(l.segIDs))
	for _, id := range l.segIDs {
		seg := l.segs[id]
		if seg == l.active {
			continue
		}
		list = append(list, sealedSeg{id: id, size: seg.size, cached: seg.manifest})
	}
	l.mu.RUnlock()

	out := make([]SegmentInfo, 0, len(list))
	for _, s := range list {
		if s.cached != nil {
			out = append(out, *s.cached)
			continue
		}
		info, err := l.scanManifest(s.id, s.size)
		if errors.Is(err, errVanished) {
			continue // compacted away mid-walk
		}
		if err != nil {
			return nil, err
		}
		out = append(out, info)
		l.mu.Lock()
		if seg := l.segs[info.ID]; seg != nil && seg != l.active {
			cached := info
			seg.manifest = &cached
		}
		l.mu.Unlock()
	}
	return out, nil
}

// scanManifest builds one sealed segment's manifest entry by a full
// verified walk. It returns errVanished when the segment was compacted
// away before the walk finished.
func (l *Log) scanManifest(id uint64, size int64) (SegmentInfo, error) {
	info := SegmentInfo{ID: id, Bytes: size}
	end, err := scanSegment(l.sealedReader(id), size, 0, func(_ int64, data []byte, recs []segRec) error {
		info.CRC = crc32.Update(info.CRC, crc32.IEEETable, data)
		for _, r := range recs {
			info.addKey(r.key)
		}
		return nil
	})
	if err == nil && end < size {
		err = fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, id, end)
	}
	return info, err
}

// addKey counts one record of key into the entry's Records and key
// range.
func (s *SegmentInfo) addKey(key string) {
	if s.Records == 0 || key < s.MinKey {
		s.MinKey = key
	}
	if s.Records == 0 || key > s.MaxKey {
		s.MaxKey = key
	}
	s.Records++
}

// StreamSegments implements Store for the log engine: each ref's
// sealed segment is streamed verbatim from its resume offset in
// scanSegment's verified windows, so corrupt bytes are never shipped:
// a record that fails verification stops the stream with ErrCorrupt
// and its location. Refs whose segment vanished (compacted away, even
// mid-stream) or that name the active segment are skipped silently.
// Resuming at a segment's very end yields one empty terminal chunk, so
// the caller still observes completion.
func (l *Log) StreamSegments(refs []SegmentRef, fn func(c SegmentChunk) bool) error {
	for _, r := range refs {
		l.mu.RLock()
		if l.closed {
			l.mu.RUnlock()
			return ErrClosed
		}
		seg := l.segs[r.ID]
		if seg == nil || seg == l.active {
			l.mu.RUnlock()
			continue
		}
		size := seg.size
		l.mu.RUnlock()
		if r.Offset < 0 || r.Offset > size {
			return fmt.Errorf("store: segment %d resume offset %d outside [0, %d]", r.ID, r.Offset, size)
		}
		if r.Offset == size {
			if !fn(SegmentChunk{Segment: r.ID, Offset: size, Last: true}) {
				return nil
			}
			continue
		}
		end, err := scanSegment(l.sealedReader(r.ID), size, r.Offset, func(off int64, data []byte, _ []segRec) error {
			if !fn(SegmentChunk{Segment: r.ID, Offset: off, Data: data, Last: off+int64(len(data)) == size}) {
				return errStopScan
			}
			return nil
		})
		switch {
		case errors.Is(err, errStopScan):
			return nil
		case errors.Is(err, errVanished):
			// compacted away mid-stream: this ref ends silently
		case err != nil:
			return err
		case end < size:
			return fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, r.ID, end)
		}
	}
	return nil
}

// errVanished is what a sealed segment's reader returns once the
// segment was compacted away: the caller ends that segment's walk
// quietly instead of reporting corruption. errStopScan is a scan
// callback's way to stop a walk early.
var (
	errVanished = errors.New("store: segment vanished")
	errStopScan = errors.New("store: scan stopped")
)

// sealedReader reads sealed segment id for scanSegment, each read under
// the store lock (mirroring StreamObjects' locking).
func (l *Log) sealedReader(id uint64) func(p []byte, off int64) (int, error) {
	return func(p []byte, off int64) (int, error) {
		l.mu.RLock()
		defer l.mu.RUnlock()
		if l.closed {
			return 0, ErrClosed
		}
		seg := l.segs[id]
		if seg == nil || seg == l.active {
			return 0, errVanished
		}
		return seg.f.ReadAt(p, off)
	}
}

// segRec is one record scanSegment verified: its decoded fields (the
// value aliases the window) and its location in the segment.
type segRec struct {
	record
	off, len int64
}

// scanSegment is the one walk over a segment's record stream, from off
// to size: replay, streaming, manifests, snapshot restore and
// compaction all read a segment through it. It reads windows of
// streamChunkBytes (grown through truncatedNeed when a record is longer
// than the window), verifies each record once with parseRecord, and
// hands fn each window's offset, its verified bytes and its records,
// all aliasing a buffer reused for the next window. It returns the
// verified end: size, or the offset of the first record that failed —
// and each caller owns what a short end means (truncate, ErrCorrupt,
// or a torn tail counted). A read error, errVanished included, or an
// error of fn ends the walk and is returned as is.
func scanSegment(read func(p []byte, off int64) (int, error), size, off int64, fn func(off int64, data []byte, recs []segRec) error) (int64, error) {
	var buf []byte
	var recs []segRec
	need := int64(streamChunkBytes)
	for off < size {
		n := min(size-off, need)
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		w := buf[:n]
		if got, err := read(w, off); err != nil && !(err == io.EOF && got == len(w)) {
			return off, err
		}
		recs = recs[:0]
		verified := 0
		for verified < len(w) {
			rec, rn, ok := parseRecord(w[verified:])
			if !ok {
				break
			}
			recs = append(recs, segRec{record: rec, off: off + int64(verified), len: int64(rn)})
			verified += rn
		}
		if verified == 0 {
			// Not one whole record in the window: either the window cut
			// a record short (grow it) or the bytes fail verification.
			grow, truncated := truncatedNeed(w, size-off)
			if !truncated {
				return off, nil
			}
			need = grow
			continue
		}
		need = streamChunkBytes
		if err := fn(off, w[:verified], recs); err != nil {
			return off, err
		}
		off += int64(verified)
	}
	return off, nil
}

// truncatedNeed reports whether the unparseable bytes at the head of b
// are merely a record cut short by the read window rather than
// corruption, and if so how many bytes the record needs. remaining is
// how many segment bytes exist from b's start.
func truncatedNeed(b []byte, remaining int64) (need int64, truncated bool) {
	if int64(len(b)) >= remaining {
		return 0, false // the whole tail was in the window: corrupt
	}
	if len(b) < recHeaderLen {
		return recHeaderLen, true
	}
	body := binary.LittleEndian.Uint32(b[0:4])
	if body < recFixedLen || body > maxRecBody {
		return 0, false // nonsensical length: corrupt
	}
	need = int64(recHeaderLen) + int64(body)
	switch {
	case need > remaining:
		return 0, false // declared length runs past the segment: corrupt
	case need <= int64(len(b)):
		return 0, false // record fully present yet unparseable: bad CRC
	default:
		return need, true
	}
}

// DecodeRecords parses a verbatim record chunk (whole-record-aligned,
// as produced by StreamSegments) back into objects and deletions, in
// stream order. It is the receiver half of segment streaming: a
// bootstrap joiner or snapshot restore applies the puts via PutBatch
// and resolves the tombstones afterwards. fn receives each record's
// byte offset within b, so callers can order records within a chunk,
// not just across chunks. Values alias b; callers that keep them past
// b's lifetime must copy. n is the count of bytes consumed — short of
// len(b) only when err is non-nil (ErrCorrupt).
func DecodeRecords(b []byte, fn func(off int, o Object, tombstone bool) bool) (n int, err error) {
	off := 0
	for off < len(b) {
		rec, rn, ok := parseRecord(b[off:])
		if !ok {
			return off, fmt.Errorf("%w: offset %d", ErrCorrupt, off)
		}
		if !fn(off, Object{Key: rec.key, Version: rec.version, Value: rec.value}, rec.typ == recTomb) {
			return off, nil
		}
		off += rn
	}
	return off, nil
}

// appendObjectRecord encodes one object (or tombstone, when value is
// nil and tomb is set) in the log record format — the synthetic-
// segment encoder for the memory engine, and the test helper for
// corruption fixtures.
func appendObjectRecord(dst []byte, o Object, tomb bool) []byte {
	typ := recPut
	if tomb {
		typ = recTomb
	}
	return appendRecord(dst, typ, o.Key, o.Version, o.Value)
}

// synthCollect snapshots a header list in (key, version) order — the
// deterministic record order of a synthetic segment, and ForEachIn's.
func synthCollect(st Store) ([]Ref, error) {
	var refs []Ref
	err := st.ForEachIn(AllRanges(), func(key string, version uint64) bool {
		refs = append(refs, Ref{Key: key, Version: version})
		return true
	})
	return refs, err
}

// synthSegments builds the single-entry manifest of a synthetic
// whole-store segment: every object encoded as a put record in sorted
// (key, version) order. Object-at-a-time: values are streamed through
// the engine's StreamObjects, never held all at once.
func synthSegments(st Store) ([]SegmentInfo, error) {
	refs, err := synthCollect(st)
	if err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return nil, nil
	}
	info := SegmentInfo{ID: syntheticSegmentID}
	var rec []byte
	_, err = st.StreamObjects(refs, func(o Object) bool {
		rec = appendObjectRecord(rec[:0], o, false)
		info.Bytes += int64(len(rec))
		info.CRC = crc32.Update(info.CRC, crc32.IEEETable, rec)
		info.addKey(o.Key)
		return true
	})
	if err != nil {
		return nil, err
	}
	return []SegmentInfo{info}, nil
}

// synthStream streams the synthetic segment's record bytes in
// record-aligned chunks from each ref's resume offset. The encoding
// is only stable while the store is quiescent — exactly the bootstrap
// and snapshot situation — and a receiver that detects drift via the
// manifest CRC re-fetches, the same recovery as a vanished log
// segment.
func synthStream(st Store, srefs []SegmentRef, fn func(c SegmentChunk) bool) error {
	for _, sr := range srefs {
		if sr.ID != syntheticSegmentID {
			continue
		}
		refs, err := synthCollect(st)
		if err != nil {
			return err
		}
		var total int64
		var chunk []byte
		var rec []byte
		flush := func(last bool) bool {
			if len(chunk) == 0 && !last {
				return true
			}
			ok := fn(SegmentChunk{
				Segment: syntheticSegmentID,
				Offset:  total - int64(len(chunk)),
				Data:    chunk,
				Last:    last,
			})
			chunk = chunk[:0]
			return ok
		}
		stopped := false
		_, err = st.StreamObjects(refs, func(o Object) bool {
			rec = appendObjectRecord(rec[:0], o, false)
			if total+int64(len(rec)) <= sr.Offset {
				total += int64(len(rec)) // before the resume point: skip
				return true
			}
			if len(chunk) > 0 && len(chunk)+len(rec) > streamChunkBytes {
				if !flush(false) {
					stopped = true
					return false
				}
			}
			chunk = append(chunk, rec...)
			total += int64(len(rec))
			return true
		})
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
		if !flush(true) {
			return nil
		}
	}
	return nil
}

// Segments implements Store for the memory engine: one synthetic
// whole-store segment (empty manifest for an empty store).
func (m *Memory) Segments() ([]SegmentInfo, error) { return synthSegments(m) }

// StreamSegments implements Store for the memory engine:
// object-at-a-time emulation over the synthetic segment.
func (m *Memory) StreamSegments(refs []SegmentRef, fn func(c SegmentChunk) bool) error {
	return synthStream(m, refs, fn)
}
