package store

// Memory is the in-memory engine: the shared header index with the
// value bytes as its per-version payload. Values are copied on the way
// in and out, so callers can never alias internal buffers. Safe for
// concurrent use.
type Memory struct {
	lockedIndex[[]byte]
}

var _ Store = (*Memory)(nil)

// NewMemory creates an empty memory store that keeps every version.
func NewMemory() *Memory { return &Memory{} }

// Put implements Store: a batch of one.
func (m *Memory) Put(key string, version uint64, value []byte) error {
	return m.PutBatch([]Object{{Key: key, Version: version, Value: value}})
}

// PutBatch implements Store, the engine's one put path: the batch is
// checked up front and applied under one lock acquisition.
func (m *Memory) PutBatch(objs []Object) error {
	for _, o := range objs {
		if err := CheckObject(o.Key, o.Version, o.Value); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, o := range objs {
		k := hashKey(o.Key)
		e := m.idx.find(k)
		if e.has(o.Version) {
			continue // idempotent re-put
		}
		buf := make([]byte, len(o.Value))
		copy(buf, o.Value)
		m.idx.add(e, k, o.Version, buf)
	}
	return nil
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

// DeleteBatch implements Store: the whole batch under one lock
// acquisition, each item applied before the next resolves.
func (m *Memory) DeleteBatch(items []Deletion) ([]bool, error) {
	existed := make([]bool, len(items))
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return existed, ErrClosed
	}
	for i, it := range items {
		k := hashKey(it.Key)
		if _, version, ok := m.idx.get(k, it.Version); ok {
			m.idx.remove(k, version)
			existed[i] = true
		}
	}
	return existed, nil
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

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.idx = rangeIndex[[]byte]{}
	return nil
}
