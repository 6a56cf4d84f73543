package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
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
	var scratch []byte
	for _, s := range list {
		if s.cached != nil {
			out = append(out, *s.cached)
			continue
		}
		info, ok, err := l.scanManifest(s.id, s.size, &scratch)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // compacted away mid-walk
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
// verified walk. ok is false when the segment vanished (compaction)
// before the walk finished.
func (l *Log) scanManifest(id uint64, size int64, scratch *[]byte) (SegmentInfo, bool, error) {
	info := SegmentInfo{ID: id, Bytes: size}
	reached, _, err := l.streamSealed(id, size, 0, scratch, func(c SegmentChunk) bool {
		info.CRC = crc32.Update(info.CRC, crc32.IEEETable, c.Data)
		for p := 0; p < len(c.Data); {
			rec, n, _ := parseRecord(c.Data[p:]) // chunk already verified
			if info.Records == 0 {
				info.MinKey, info.MaxKey = rec.key, rec.key
			} else {
				if rec.key < info.MinKey {
					info.MinKey = rec.key
				}
				if rec.key > info.MaxKey {
					info.MaxKey = rec.key
				}
			}
			info.Records++
			p += n
		}
		return true
	})
	if err != nil {
		return SegmentInfo{}, false, err
	}
	return info, reached == size, nil
}

// StreamSegments implements Store for the log engine: each ref's
// sealed segment is streamed verbatim from its resume offset. Refs
// whose segment vanished (compacted away) or that name the active
// segment are skipped silently.
func (l *Log) StreamSegments(refs []SegmentRef, fn func(c SegmentChunk) bool) error {
	var scratch []byte
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
		_, stopped, err := l.streamSealed(r.ID, size, r.Offset, &scratch, fn)
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// streamSealed walks one sealed segment's record stream from startOff,
// re-verifying every record CRC and handing whole-record-aligned
// chunks to fn. It returns the offset the walk reached — equal to size
// when the segment streamed completely, short when it vanished under
// compaction mid-stream (ended silently) — and whether fn stopped the
// stream. A record that fails verification returns ErrCorrupt with its
// location: corrupt bytes are never shipped verbatim.
func (l *Log) streamSealed(id uint64, size, startOff int64, scratch *[]byte, fn func(c SegmentChunk) bool) (reached int64, stopped bool, err error) {
	off := startOff
	if off < 0 || off > size {
		return off, false, fmt.Errorf("store: segment %d resume offset %d outside [0, %d]", id, off, size)
	}
	if off == size {
		// Resuming at the very end: emit one empty terminal chunk so
		// the caller still observes completion.
		return off, !fn(SegmentChunk{Segment: id, Offset: off, Last: true}), nil
	}
	need := int64(streamChunkBytes)
	for off < size {
		n := size - off
		if n > need {
			n = need
		}
		if int64(cap(*scratch)) < n {
			*scratch = make([]byte, n)
		}
		buf := (*scratch)[:n]
		vanished, err := l.readSealed(id, off, buf)
		if err != nil {
			return off, false, err
		}
		if vanished {
			return off, false, nil
		}
		verified := 0
		for verified < len(buf) {
			_, rn, ok := parseRecord(buf[verified:])
			if !ok {
				break
			}
			verified += rn
		}
		if verified == 0 {
			// Not one whole record in the window: either the window cut
			// a record short (grow it) or the bytes are corrupt.
			grow, truncated := truncatedNeed(buf, size-off)
			if !truncated {
				return off, false, fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, id, off)
			}
			need = grow
			continue
		}
		need = streamChunkBytes
		last := off+int64(verified) == size
		if !fn(SegmentChunk{Segment: id, Offset: off, Data: buf[:verified], Last: last}) {
			return off, true, nil
		}
		off += int64(verified)
	}
	return off, false, nil
}

// readSealed reads len(buf) bytes at off from sealed segment id under
// the store lock (mirroring StreamObjects' locking). vanished is true
// when the segment was compacted away since the caller looked it up.
func (l *Log) readSealed(id uint64, off int64, buf []byte) (vanished bool, err error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return false, ErrClosed
	}
	seg := l.segs[id]
	if seg == nil || seg == l.active {
		return true, nil
	}
	if n, err := seg.f.ReadAt(buf, off); err != nil && !(err == io.EOF && n == len(buf)) {
		return false, fmt.Errorf("store: read segment %d: %w", id, err)
	}
	return false, nil
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
// deterministic record order of a synthetic segment.
func synthCollect(st Store) ([]Ref, error) {
	var refs []Ref
	err := st.ForEach(func(key string, version uint64) bool {
		refs = append(refs, Ref{Key: key, Version: version})
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Key != refs[j].Key {
			return refs[i].Key < refs[j].Key
		}
		return refs[i].Version < refs[j].Version
	})
	return refs, nil
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
		if info.Records == 0 {
			info.MinKey, info.MaxKey = o.Key, o.Key
		} else {
			if o.Key < info.MinKey {
				info.MinKey = o.Key
			}
			if o.Key > info.MaxKey {
				info.MaxKey = o.Key
			}
		}
		info.Records++
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
