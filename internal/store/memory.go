package store

import (
	"sort"
	"sync"
)

// Memory is the in-memory engine: a map of keys to version-sorted
// entries. Values are copied on the way in and out, so callers can
// never alias internal buffers. Safe for concurrent use.
type Memory struct {
	mu     sync.RWMutex
	keys   map[string]*memKey
	count  int
	closed bool

	// maxVersionsPerKey, when positive, garbage-collects the oldest
	// versions beyond the cap. Zero keeps everything (the paper's
	// model).
	maxVersionsPerKey int
}

type memKey struct {
	// versions is kept sorted ascending.
	versions []uint64
	values   map[uint64][]byte
}

var _ Store = (*Memory)(nil)

// NewMemory creates an empty memory store that keeps every version.
func NewMemory() *Memory { return NewMemoryCapped(0) }

// NewMemoryCapped creates a memory store keeping at most maxVersions
// per key (0 = unlimited).
func NewMemoryCapped(maxVersions int) *Memory {
	return &Memory{keys: make(map[string]*memKey), maxVersionsPerKey: maxVersions}
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
	k, ok := m.keys[key]
	if !ok {
		k = &memKey{values: make(map[uint64][]byte, 1)}
		m.keys[key] = k
	}
	if _, exists := k.values[version]; exists {
		return // idempotent re-put
	}
	buf := make([]byte, len(value))
	copy(buf, value)
	k.values[version] = buf
	k.versions = insertSorted(k.versions, version)
	m.count++
	if m.maxVersionsPerKey > 0 {
		for len(k.versions) > m.maxVersionsPerKey {
			oldest := k.versions[0]
			k.versions = k.versions[1:]
			delete(k.values, oldest)
			m.count--
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
	k, ok := m.keys[key]
	if !ok || len(k.versions) == 0 {
		return nil, 0, false, nil
	}
	v := version
	if version == Latest {
		v = k.versions[len(k.versions)-1]
	}
	val, ok := k.values[v]
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
	k, ok := m.keys[key]
	if !ok {
		return nil, nil
	}
	out := make([]uint64, len(k.versions))
	copy(out, k.versions)
	return out, nil
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
	k, ok := m.keys[key]
	if !ok || len(k.versions) == 0 {
		return false
	}
	if version == Latest {
		version = k.versions[len(k.versions)-1]
	}
	if _, exists := k.values[version]; !exists {
		return false
	}
	delete(k.values, version)
	i := sort.Search(len(k.versions), func(i int) bool { return k.versions[i] >= version })
	if i < len(k.versions) && k.versions[i] == version {
		k.versions = append(k.versions[:i], k.versions[i+1:]...)
	}
	m.count--
	if len(k.versions) == 0 {
		delete(m.keys, key)
	}
	return true
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
		if k, kok := m.keys[r.Key]; kok {
			val, ok = k.values[r.Version]
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

// ForEach implements Store. The iteration works on a snapshot of the
// headers, ordered by (key, version) — a stable order keeps protocols
// that truncate digests deterministic — so fn may call back into the
// store.
func (m *Memory) ForEach(fn func(key string, version uint64) bool) error {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrClosed
	}
	snapshot := newHeaderSnapshot(len(m.keys), m.count)
	for key, k := range m.keys {
		snapshot.add(key, k.versions)
	}
	m.mu.RUnlock()
	snapshot.visit(fn)
	return nil
}

// Count implements Store.
func (m *Memory) Count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.keys = nil
	m.count = 0
	return nil
}

func insertSorted(vs []uint64, v uint64) []uint64 {
	i := sort.Search(len(vs), func(i int) bool { return vs[i] >= v })
	vs = append(vs, 0)
	copy(vs[i+1:], vs[i:])
	vs[i] = v
	return vs
}
