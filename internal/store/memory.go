package store

import "sync"

// Memory is the in-memory engine: the shared header index with the
// value bytes as its per-version payload. Values are copied on the way
// in and out, so callers can never alias internal buffers. Safe for
// concurrent use.
type Memory struct {
	mu     sync.RWMutex
	idx    rangeIndex[[]byte]
	closed bool

	// maxVersionsPerKey, when positive, garbage-collects the oldest
	// versions beyond the cap. Zero keeps everything (the paper's
	// model).
	maxVersionsPerKey int
}

var _ Store = (*Memory)(nil)

// NewMemory creates an empty memory store that keeps every version.
func NewMemory() *Memory { return NewMemoryCapped(0) }

// NewMemoryCapped creates a memory store keeping at most maxVersions
// per key (0 = unlimited).
func NewMemoryCapped(maxVersions int) *Memory {
	return &Memory{maxVersionsPerKey: maxVersions}
}

// Put implements Store.
func (m *Memory) Put(key string, version uint64, value []byte) error {
	if ReservedVersion(version) {
		return ErrBadVersion
	}
	if err := CheckKey(key); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.putLocked(key, version, value)
	return nil
}

// PutBatch implements Store: the batch is validated up front and
// applied under one lock acquisition.
func (m *Memory) PutBatch(objs []Object) error {
	for _, o := range objs {
		if ReservedVersion(o.Version) {
			return ErrBadVersion
		}
		if err := CheckKey(o.Key); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, o := range objs {
		m.putLocked(o.Key, o.Version, o.Value)
	}
	return nil
}

// putLocked stores one object. Caller holds mu and has validated the
// key and version.
func (m *Memory) putLocked(key string, version uint64, value []byte) {
	k := hashKey(key)
	e := m.idx.find(k)
	if e.has(version) {
		return // idempotent re-put
	}
	buf := make([]byte, len(value))
	copy(buf, value)
	e = m.idx.add(e, k, version, buf)
	if m.maxVersionsPerKey > 0 {
		for len(e.versions) > m.maxVersionsPerKey {
			m.idx.remove(k, e.versions[0])
		}
	}
}

// Get implements Store.
func (m *Memory) Get(key string, version uint64) ([]byte, uint64, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, 0, false, ErrClosed
	}
	val, v, ok := m.idx.get(hashKey(key), version)
	if !ok {
		return nil, 0, false, nil
	}
	out := make([]byte, len(val))
	copy(out, val)
	return out, v, true, nil
}

// Versions implements Store.
func (m *Memory) Versions(key string) ([]uint64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	return m.idx.versionsOf(key), nil
}

// Delete implements Store. Version Latest resolves to the newest
// stored version, mirroring Get.
func (m *Memory) Delete(key string, version uint64) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, ErrClosed
	}
	return m.deleteLocked(key, version), nil
}

// DeleteBatch implements Store: the whole batch under one lock
// acquisition.
func (m *Memory) DeleteBatch(items []Deletion) ([]bool, error) {
	existed := make([]bool, len(items))
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return existed, ErrClosed
	}
	for i, it := range items {
		existed[i] = m.deleteLocked(it.Key, it.Version)
	}
	return existed, nil
}

// deleteLocked removes one version (Latest resolves to the newest) and
// reports whether it existed. Caller holds mu.
func (m *Memory) deleteLocked(key string, version uint64) bool {
	k := hashKey(key)
	_, version, ok := m.idx.get(k, version)
	if ok {
		m.idx.remove(k, version)
	}
	return ok
}

// StreamObjects implements Store. The values handed to fn alias the
// stored bytes — safe because the engine never mutates a stored value
// in place (puts copy on the way in, re-puts are no-ops) — so a
// repair push streams with zero value copies inside the engine. There
// is nothing to verify in RAM; corrupt is always 0.
func (m *Memory) StreamObjects(refs []Ref, fn func(o Object) bool) (int, error) {
	for _, r := range refs {
		m.mu.RLock()
		if m.closed {
			m.mu.RUnlock()
			return 0, ErrClosed
		}
		var val []byte
		ok := false
		if e := m.idx.find(hashKey(r.Key)); e != nil {
			val, ok = e.vals[r.Version]
		}
		m.mu.RUnlock()
		if !ok {
			continue
		}
		if !fn(Object{Key: r.Key, Version: r.Version, Value: val}) {
			return 0, nil
		}
	}
	return 0, nil
}

// ForEach implements Store.
func (m *Memory) ForEach(fn func(key string, version uint64) bool) error {
	return m.ForEachIn(AllRanges(), fn)
}

// ForEachIn implements Store.
func (m *Memory) ForEachIn(ranges RangeSet, fn func(key string, version uint64) bool) error {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrClosed
	}
	snapshot := m.idx.snapshot(ranges)
	m.mu.RUnlock()
	snapshot.visit(fn)
	return nil
}

// RangeSums implements Store.
func (m *Memory) RangeSums() RangeSums {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.idx.sums
}

// Count implements Store.
func (m *Memory) Count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.idx.count
}

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.idx = rangeIndex[[]byte]{}
	return nil
}
