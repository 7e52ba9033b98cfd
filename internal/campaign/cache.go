package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/obs"
)

// ResultStore memoizes run results by content address, so overlapping or
// repeated sweeps hit a cache instead of the simulator. Implementations
// must be safe for concurrent use by campaign workers, and Get must not
// allocate on the miss path — a million-run sweep probes the store once
// per run, and the common case on a fresh campaign is a miss.
//
// Stored results hold only content-determined fields; the engine
// rehydrates per-sweep coordinates (index, campaign and override names,
// machine labels) from the run being served, so a hit is byte-identical
// to a cold simulation of the same run.
type ResultStore interface {
	// Get returns the memoized result for a key, if present.
	Get(key RunKey) (RunResult, bool)
	// Put memoizes a result. Implementations may evict older entries.
	Put(key RunKey, res RunResult)
	// Stats reports the store's counters since construction.
	Stats() CacheStats
}

// CacheStats are a store's hit/miss counters, rendered into campaign
// summaries and the campaignd /v1/cache/stats response.
type CacheStats struct {
	Schema  int    `json:"schema_version"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	Entries int    `json:"entries"`
}

// MemoryStore is an in-memory LRU ResultStore. The zero value is not
// usable; construct with NewMemoryStore.
type MemoryStore struct {
	mu       sync.Mutex
	capacity int
	entries  map[RunKey]*lruEntry
	// head is the most recently used entry, tail the eviction candidate.
	head, tail *lruEntry

	hits, misses, puts uint64
}

type lruEntry struct {
	key        RunKey
	res        RunResult
	prev, next *lruEntry
}

// DefaultMemoryEntries bounds a NewMemoryStore(0). A RunResult is a few
// hundred bytes, so the default holds a flagship-scale sweep many times
// over in tens of MB.
const DefaultMemoryEntries = 1 << 16

// NewMemoryStore returns an LRU store holding at most capacity results
// (DefaultMemoryEntries if capacity <= 0).
func NewMemoryStore(capacity int) *MemoryStore {
	if capacity <= 0 {
		capacity = DefaultMemoryEntries
	}
	return &MemoryStore{
		capacity: capacity,
		entries:  make(map[RunKey]*lruEntry),
	}
}

// unlink removes e from the recency list.
func (m *MemoryStore) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (m *MemoryStore) pushFront(e *lruEntry) {
	e.next = m.head
	if m.head != nil {
		m.head.prev = e
	}
	m.head = e
	if m.tail == nil {
		m.tail = e
	}
}

// Get implements ResultStore. The miss path performs one map probe on a
// comparable array key: no allocations (pinned by a test).
func (m *MemoryStore) Get(key RunKey) (RunResult, bool) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		m.misses++
		m.mu.Unlock()
		return RunResult{}, false
	}
	m.hits++
	m.unlink(e)
	m.pushFront(e)
	res := e.res
	m.mu.Unlock()
	return res, true
}

// Put implements ResultStore, evicting the least recently used entry when
// the store is full.
func (m *MemoryStore) Put(key RunKey, res RunResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	if e, ok := m.entries[key]; ok {
		e.res = res
		m.unlink(e)
		m.pushFront(e)
		return
	}
	if len(m.entries) >= m.capacity {
		evict := m.tail
		m.unlink(evict)
		delete(m.entries, evict.key)
	}
	e := &lruEntry{key: key, res: res}
	m.entries[key] = e
	m.pushFront(e)
}

// Stats implements ResultStore.
func (m *MemoryStore) Stats() CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return CacheStats{
		Schema: SchemaVersion,
		Hits:   m.hits, Misses: m.misses, Puts: m.puts,
		Entries: len(m.entries),
	}
}

// cacheRecord is one line of a DiskStore file.
type cacheRecord struct {
	Schema int             `json:"schema_version"`
	Key    string          `json:"key"`
	Row    json.RawMessage `json:"row"`
}

// DiskStore is a ResultStore backed by an append-only JSONL file: one
// {"schema_version", "key", "row"} object per memoized result, fully
// indexed in memory at open. Puts append and flush immediately, so a
// killed process loses at most the line being written — and the loader
// skips that torn tail, which the next open ends with a newline. The file
// is shared-nothing: one process owns it at a time.
type DiskStore struct {
	mu   sync.Mutex
	path string
	f    *os.File
	m    map[RunKey]RunResult

	hits, misses, puts uint64
}

// OpenDiskStore opens (creating if needed, parents included) a disk-backed
// store and loads its index.
func OpenDiskStore(path string) (*DiskStore, error) {
	if err := obs.EnsureParent(path); err != nil {
		return nil, fmt.Errorf("campaign: cache %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: cache: %w", err)
	}
	d := &DiskStore{path: path, f: f, m: make(map[RunKey]RunResult)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec cacheRecord
		if json.Unmarshal(line, &rec) != nil || rec.Schema != SchemaVersion {
			// A torn tail from a killed writer, or a future schema: skip —
			// the worst case is re-simulating a run.
			continue
		}
		key, err := ParseRunKey(rec.Key)
		if err != nil {
			continue
		}
		var res RunResult
		if json.Unmarshal(rec.Row, &res) != nil {
			continue
		}
		d.m[key] = res
	}
	err = sc.Err()
	if err == nil {
		err = terminateLine(f)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: cache %s: %w", path, err)
	}
	return d, nil
}

// Get implements ResultStore.
func (d *DiskStore) Get(key RunKey) (RunResult, bool) {
	d.mu.Lock()
	res, ok := d.m[key]
	if ok {
		d.hits++
	} else {
		d.misses++
	}
	d.mu.Unlock()
	return res, ok
}

// Put implements ResultStore, appending the record before indexing it so
// the in-memory view never claims more than the file holds.
func (d *DiskStore) Put(key RunKey, res RunResult) {
	row, err := json.Marshal(&res)
	if err != nil {
		return
	}
	rec, err := json.Marshal(cacheRecord{Schema: SchemaVersion, Key: key.String(), Row: row})
	if err != nil {
		return
	}
	rec = append(rec, '\n')
	d.mu.Lock()
	defer d.mu.Unlock()
	d.puts++
	if _, err := d.f.Write(rec); err != nil {
		return // cache is best-effort: a full disk degrades to misses
	}
	d.m[key] = res
}

// Stats implements ResultStore.
func (d *DiskStore) Stats() CacheStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return CacheStats{
		Schema: SchemaVersion,
		Hits:   d.hits, Misses: d.misses, Puts: d.puts,
		Entries: len(d.m),
	}
}

// Close flushes and closes the backing file. The store must not be used
// afterwards.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
}

// TieredStore layers a small fast store (typically a MemoryStore) over a
// larger persistent one (typically a DiskStore): gets probe fast first and
// promote slow hits, puts write through to both. Its stats count the
// tiered view — a hit in either layer is one hit.
type TieredStore struct {
	fast, slow ResultStore
	mu         sync.Mutex
	hits       uint64
	misses     uint64
	puts       uint64
}

// NewTieredStore layers fast over slow.
func NewTieredStore(fast, slow ResultStore) *TieredStore {
	return &TieredStore{fast: fast, slow: slow}
}

// Get implements ResultStore.
func (t *TieredStore) Get(key RunKey) (RunResult, bool) {
	res, ok := t.fast.Get(key)
	if !ok {
		res, ok = t.slow.Get(key)
		if ok {
			t.fast.Put(key, res)
		}
	}
	t.mu.Lock()
	if ok {
		t.hits++
	} else {
		t.misses++
	}
	t.mu.Unlock()
	return res, ok
}

// Put implements ResultStore.
func (t *TieredStore) Put(key RunKey, res RunResult) {
	t.mu.Lock()
	t.puts++
	t.mu.Unlock()
	t.fast.Put(key, res)
	t.slow.Put(key, res)
}

// Stats implements ResultStore. Entries reports the persistent layer's
// count — the fast layer is a subset view.
func (t *TieredStore) Stats() CacheStats {
	t.mu.Lock()
	hits, misses, puts := t.hits, t.misses, t.puts
	t.mu.Unlock()
	return CacheStats{
		Schema: SchemaVersion,
		Hits:   hits, Misses: misses, Puts: puts,
		Entries: t.slow.Stats().Entries,
	}
}
