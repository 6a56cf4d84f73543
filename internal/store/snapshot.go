package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Point-in-time snapshot and restore, built on the same sealed-segment
// machinery bootstrap streams over the wire. A snapshot directory
// holds the segments as verbatim record files plus MANIFEST.json
// (written last, atomically: a crash mid-snapshot leaves no manifest
// and the directory reads as no snapshot at all). Restore replays the
// manifest's segments through the engine-generic record applier, so a
// backup taken from a log store restores into any engine. Corruption
// in a segment file truncates that segment at the last verified record
// — the same crash-consistency rule as log replay — and is reported in
// RestoreStats rather than failing the restore.

// ManifestName is the snapshot manifest file name.
const ManifestName = "MANIFEST.json"

// SnapshotManifest records what a snapshot directory contains.
type SnapshotManifest struct {
	Format   int           `json:"format"`
	Segments []SegmentInfo `json:"segments"`
}

// snapshotFormat is the current manifest format version.
const snapshotFormat = 1

// SegmentFileName returns the file name a snapshot stores segment id
// under (the log engine's own segment naming).
func SegmentFileName(id uint64) string { return segmentName(id) }

// sealer is the optional interface of engines whose active writes can
// be rolled into the sealed set before a snapshot (the log engine).
type sealer interface{ Seal() error }

// WriteSnapshot captures st's sealed segments into dir as verbatim
// record files plus MANIFEST.json. Engines with an active segment are
// sealed first so the capture covers everything written before the
// call. A segment that vanishes or drifts mid-stream (compaction; a
// concurrent write on a synthetic-segment engine) is dropped from the
// manifest rather than recorded torn — the snapshot stays internally
// consistent, just smaller. The manifest is written last via rename,
// so a crashed snapshot leaves no manifest and ReadManifest fails
// cleanly.
func WriteSnapshot(st Store, dir string) (SnapshotManifest, error) {
	man := SnapshotManifest{Format: snapshotFormat}
	if s, ok := st.(sealer); ok {
		if err := s.Seal(); err != nil {
			return man, fmt.Errorf("store: seal before snapshot: %w", err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return man, fmt.Errorf("store: create snapshot dir: %w", err)
	}
	segs, err := st.Segments()
	if err != nil {
		return man, err
	}
	for _, info := range segs {
		ok, err := writeSnapshotSegment(st, dir, info)
		if err != nil {
			return man, err
		}
		if ok {
			man.Segments = append(man.Segments, info)
		}
	}
	return WriteManifest(dir, man.Segments)
}

// WriteManifest publishes a manifest covering segs into dir, written
// atomically (temp file + rename) and dir-synced so a crash leaves
// either the previous manifest or the new one, never a torn file. The
// segment files themselves must already be in place — this is the
// "commit" of a snapshot, used both by WriteSnapshot and by remote
// snapshot downloads.
func WriteManifest(dir string, segs []SegmentInfo) (SnapshotManifest, error) {
	man := SnapshotManifest{Format: snapshotFormat, Segments: segs}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return man, err
	}
	tmp := filepath.Join(dir, ManifestName+".partial")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return man, fmt.Errorf("store: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmp)
		return man, fmt.Errorf("store: publish manifest: %w", err)
	}
	if err := syncSnapshotDir(dir); err != nil {
		return man, err
	}
	return man, nil
}

// writeSnapshotSegment streams one segment into its snapshot file,
// verifying length and CRC against the manifest entry. ok is false
// (and the file removed) when the stream came up short or drifted.
func writeSnapshotSegment(st Store, dir string, info SegmentInfo) (ok bool, err error) {
	path := filepath.Join(dir, segmentName(info.ID))
	f, err := os.Create(path)
	if err != nil {
		return false, fmt.Errorf("store: create snapshot segment: %w", err)
	}
	var crc uint32
	var n int64
	complete := false
	var werr error
	err = st.StreamSegments([]SegmentRef{{ID: info.ID}}, func(c SegmentChunk) bool {
		if c.Offset != n {
			werr = fmt.Errorf("store: snapshot segment %d: chunk at %d, expected %d", info.ID, c.Offset, n)
			return false
		}
		if _, err := f.Write(c.Data); err != nil {
			werr = fmt.Errorf("store: write snapshot segment: %w", err)
			return false
		}
		crc = crc32.Update(crc, crc32.IEEETable, c.Data)
		n += int64(len(c.Data))
		complete = c.Last
		return true
	})
	if err == nil {
		err = werr
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return false, err
	}
	if !complete || n != info.Bytes || crc != info.CRC {
		// Vanished under compaction or (synthetic segments) changed
		// under a concurrent write: not capturable this pass.
		os.Remove(path)
		return false, nil
	}
	return true, nil
}

func syncSnapshotDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open snapshot dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync snapshot dir: %w", err)
	}
	return nil
}

// ReadManifest loads and validates a snapshot directory's manifest.
func ReadManifest(dir string) (SnapshotManifest, error) {
	var man SnapshotManifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return man, fmt.Errorf("store: read snapshot manifest: %w", err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("store: parse snapshot manifest: %w", err)
	}
	if man.Format != snapshotFormat {
		return man, fmt.Errorf("store: snapshot manifest format %d not supported (want %d)", man.Format, snapshotFormat)
	}
	return man, nil
}

// RestoreStats reports what a restore applied and what it had to cut.
type RestoreStats struct {
	// Segments is how many manifest segments were replayed (fully or
	// to their truncation point).
	Segments int
	// Objects counts put records applied to the store.
	Objects int
	// Tombstones counts deletions applied after all segments replayed.
	Tombstones int
	// TruncatedBytes counts bytes dropped at corrupt or torn segment
	// tails — the restore-side analogue of log replay's torn-tail
	// truncation. Zero on a clean restore.
	TruncatedBytes int64
	// TruncatedSegments counts segments that needed truncation.
	TruncatedSegments int
}

// Restore replays a snapshot directory into st. Segments are applied
// in ascending id order through a RecordApplier, so tombstones resolve
// exactly as log replay would; a record that fails verification
// truncates its segment at the last verified byte (counted in stats)
// and the restore continues with the remaining segments — bit rot in a
// backup costs the rotten tail, never the whole restore. A missing or
// unparseable manifest fails immediately: that directory is not a
// snapshot.
func Restore(dir string, st Store) (RestoreStats, error) {
	var stats RestoreStats
	man, err := ReadManifest(dir)
	if err != nil {
		return stats, err
	}
	segs := append([]SegmentInfo(nil), man.Segments...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].ID < segs[j].ID })
	applier := NewRecordApplier(st, nil)
	for _, info := range segs {
		if err := restoreSegment(filepath.Join(dir, segmentName(info.ID)), info.ID, applier, &stats); err != nil {
			return stats, err
		}
	}
	tombs, err := applier.Finish()
	stats.Tombstones = tombs
	return stats, err
}

// restoreSegment applies one snapshot segment file through applier in
// scanSegment's verified windows and counts it in stats. Bytes past
// the verified end are a torn or rotten tail, counted as truncated;
// I/O and apply errors fail the restore.
func restoreSegment(path string, id uint64, applier *RecordApplier, stats *RestoreStats) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: open snapshot segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat snapshot segment: %w", err)
	}
	verified, err := scanSegment(f.ReadAt, fi.Size(), 0, func(off int64, data []byte, _ []segRec) error {
		n, err := applier.Apply(id, off, data)
		stats.Objects += n
		return err
	})
	if err != nil {
		return err
	}
	stats.Segments++
	if torn := fi.Size() - verified; torn > 0 {
		stats.TruncatedBytes += torn
		stats.TruncatedSegments++
	}
	return nil
}
