package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ResultStore memoizes run results by content address, so overlapping or
// repeated sweeps hit a cache instead of the simulator. Implementations
// must be safe for concurrent use by campaign workers, and Get must not
// allocate on the miss path — a million-run sweep probes the store once
// per run, and the common case on a fresh campaign is a miss.
//
// A store needs to keep only the content fields of a result: the model
// and simulated times, the traffic and contention counters and the
// histogram summaries, which the key determines. The engine builds the
// row served for a hit from those fields and the run at hand — its
// coordinates, labels and fabric name, and the error metrics derived from
// the two times — so a hit is byte-identical to a cold simulation of the
// same run, whatever run first put the result. The two stores here keep
// exactly those fields, an 80-byte record per result.
type ResultStore interface {
	// Get returns the memoized result for a key, if present. Only its
	// content fields are meaningful.
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

// MemoryStore is an in-memory LRU ResultStore. Each result costs one
// 128-byte entry (key, outcome and recency links) plus its map slot: 210
// live bytes per result in a store of 600 (TestMemoryStoreBytesPerResult).
// The zero value is not usable; construct with NewMemoryStore.
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
	out        outcome
	prev, next *lruEntry
}

// DefaultMemoryEntries bounds a NewMemoryStore(0): about 13 MB when full,
// a flagship-scale sweep many times over.
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
	res := e.out.result()
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
		e.out = outcomeOf(&res)
		m.unlink(e)
		m.pushFront(e)
		return
	}
	if len(m.entries) >= m.capacity {
		evict := m.tail
		m.unlink(evict)
		delete(m.entries, evict.key)
	}
	e := &lruEntry{key: key, out: outcomeOf(&res)}
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

// storeFiles matches the names of the files a DiskStore loads from its
// directory.
const storeFiles = "cache*.jsonl"

// StoreFile names the file that range part `part` of `parts` appends to in
// a shared store directory: cache.jsonl for a whole campaign, otherwise
// cache-I-of-N.jsonl, so that concurrent parts never share a file.
func StoreFile(part, parts int) string {
	if parts <= 1 {
		return "cache.jsonl"
	}
	return fmt.Sprintf("cache-%d-of-%d.jsonl", part, parts)
}

// DiskStore is a ResultStore backed by a directory of append-only JSONL
// files: one {"schema_version", "key", "row"} object per memoized result,
// the row as the engine put it. At open every record is loaded into
// memory as its key and outcome, one 112-byte map slot: 205 live bytes per
// record of a 600-record store (TestDiskStoreBytesPerRecord). Each process
// sharing the directory appends to a file of its own (see StoreFile), so
// concurrent writers never share a file, and the next open loads every
// writer's records.
//
// Puts append and flush immediately, so a killed process loses at most
// the line being written: the loader skips that torn tail, and the next
// open of the file ends it with a newline. Because records are addressed
// by content, the directory is also a campaign's resume point and merge
// source: a restarted campaign finds its finished runs as hits, and
// Engine.Merge assembles a ranged campaign's output from them.
type DiskStore struct {
	mu  sync.Mutex
	f   *os.File
	m   map[RunKey]outcome
	err error // the first failed append, returned by Close

	hits, misses, puts uint64
}

// OpenDiskStore opens the store directory dir, creating it (parents
// included) if needed. It loads every cache*.jsonl file in dir and
// appends only to dir/name, which must match cache*.jsonl itself so that
// a later open loads it.
func OpenDiskStore(dir, name string) (*DiskStore, error) {
	if ok, _ := filepath.Match(storeFiles, name); !ok {
		return nil, fmt.Errorf("campaign: cache file %q does not match %s", name, storeFiles)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: cache: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: cache: %w", err)
	}
	d := &DiskStore{f: f, m: make(map[RunKey]outcome)}
	err = terminateLine(f)
	if err == nil {
		err = d.load(dir)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: cache %s: %w", dir, err)
	}
	return d, nil
}

// terminateLine ends a torn last line — a record a killed writer left
// half-written — with a newline, so the next appended record starts a line
// of its own instead of being glued onto the fragment and skipped with it
// by the loader.
func terminateLine(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := []byte{0}
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		_, err = f.Write([]byte{'\n'})
	}
	return err
}

// load indexes the records of every store file in dir, in name order.
func (d *DiskStore) load(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if ok, _ := filepath.Match(storeFiles, e.Name()); !ok || e.IsDir() {
			continue
		}
		if err := d.loadFile(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func (d *DiskStore) loadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var rec cacheRecord
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Schema != SchemaVersion {
			// A blank line, a torn tail from a killed writer, or a future
			// schema: skip — the worst case is re-simulating a run.
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
		d.m[key] = outcomeOf(&res)
	}
	return sc.Err()
}

// Get implements ResultStore.
func (d *DiskStore) Get(key RunKey) (RunResult, bool) {
	d.mu.Lock()
	o, ok := d.m[key]
	if ok {
		d.hits++
	} else {
		d.misses++
	}
	d.mu.Unlock()
	if !ok {
		return RunResult{}, false
	}
	return o.result(), true
}

// Put implements ResultStore. It appends the record before indexing it,
// so the in-memory view never claims more than the files hold, and skips
// a key that is already indexed: its record on disk has the same content.
// A failed append is kept for Close to return — the store is a campaign's
// resume point, so a record it lost must fail the campaign.
func (d *DiskStore) Put(key RunKey, res RunResult) {
	row, err := json.Marshal(&res)
	var rec []byte
	if err == nil {
		rec, err = json.Marshal(cacheRecord{Schema: SchemaVersion, Key: key.String(), Row: row})
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.puts++
	if _, ok := d.m[key]; ok {
		return
	}
	if err == nil {
		_, err = d.f.Write(append(rec, '\n'))
	}
	if err != nil {
		if d.err == nil {
			d.err = fmt.Errorf("campaign: cache: %w", err)
		}
		return
	}
	d.m[key] = outcomeOf(&res)
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

// Close closes the store's file and returns the first failed append, if
// any. The store must not be used afterwards.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return errors.Join(d.err, d.f.Close())
}
