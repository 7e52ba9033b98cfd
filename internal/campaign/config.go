package campaign

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// SchemaVersion is the version of every JSON artifact the campaign layer
// emits: JSONL result rows, cache records, and campaignd HTTP responses,
// all of which carry it as a "schema_version" field.
// Compatibility rule: within one version, fields are only ever added, and
// existing fields keep their names, types and semantics; readers must
// ignore fields they do not know. Any change that renames, removes or
// reinterprets a field bumps the version, and writers never emit more than
// one version.
const SchemaVersion = 1

// Config is the complete configuration of a campaign Engine: how the runs
// it is handed execute (worker pool, shard override, histograms, flight
// recorder, result hook, result store). Which runs execute is the
// caller's choice — cmd/campaign expands, filters and ranges a spec, the
// campaignd server expands each submission — and the engine sees only the
// resulting list. Build one as a literal and hand it to NewEngine, the
// single place configurations are validated.
type Config struct {
	// Workers is the worker-pool size; non-positive means GOMAXPROCS.
	Workers int
	// Shards, if positive, overrides the spec's simulator shard count for
	// every run. Every sharded count (≥ 2) yields bit-identical results.
	Shards int
	// Hist collects per-run duration histograms into RunResult.Hists.
	Hist bool

	// Obs, if non-nil, is attached as the flight recorder of the first run
	// of the list Execute is handed. That run always executes in the
	// simulator — the store is not asked for it, though its result is
	// stored — so its artifacts are produced even on a fully warm cache.
	Obs *obs.Recorder

	// OnResult, if non-nil, is called with each finished result in
	// completion order (not index order). Calls are serialised.
	OnResult func(RunResult)

	// Store, if non-nil, memoizes results by content address (RunKey):
	// runs whose key hits the store are served from it instead of the
	// simulator, byte-identical to a cold run. A persistent store (a
	// DiskStore) is also how a killed campaign resumes — its finished
	// runs are hits — and what Engine.Merge reads.
	Store ResultStore
}

// Validate checks the config's one invariant: a non-negative shard
// override.
func (c Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("campaign: negative shard override %d", c.Shards)
	}
	return nil
}

// Range is a half-open [Lo, Hi) slice of a campaign's expanded run indices.
// Campaigns shard across processes by range: each process executes one
// range into a shared store directory, and Engine.Merge, handed the whole
// run list, reassembles the full JSONL from the store. Rows are addressed
// by content and written in list order, so the merged file is
// byte-identical however the index space was partitioned.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Ranges partitions [0, n) into k contiguous ranges whose sizes differ by
// at most one (the first n%k ranges get the extra run). k is clamped to
// [1, n] for n > 0; Ranges(0, k) is empty.
func Ranges(n, k int) []Range {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]Range, 0, k)
	base, extra := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// recorderFor resolves the flight recorder for the run at position i of
// the list Execute was handed, or nil.
func (c Config) recorderFor(i int) *obs.Recorder {
	if c.Obs != nil && i == 0 {
		if c.Hist {
			c.Obs.Hist = true
		}
		return c.Obs
	}
	if c.Hist {
		return &obs.Recorder{Hist: true}
	}
	return nil
}

// ExecStats count what the engine did across its Execute calls: how many
// runs it was asked for, and how each was satisfied. Runs = Simulated +
// CacheHits for campaigns that completed without error.
type ExecStats struct {
	Schema int `json:"schema_version"`
	// Runs is the number of runs dispatched.
	Runs int `json:"runs"`
	// Simulated is the number actually executed in the simulator.
	Simulated int `json:"simulated"`
	// CacheHits is the number served from the result store.
	CacheHits int `json:"cache_hits"`
	// CheckpointHits is always 0: resumed runs are cache hits now that
	// the result store is the only persistent state. The field stays
	// because schema v1 never removes a field from campaignd's status
	// JSON.
	CheckpointHits int `json:"checkpoint_hits"`
}

// execCounters is the engine's mutable stats box, shared by concurrent
// Execute calls.
type execCounters struct {
	mu sync.Mutex
	s  ExecStats
}

func (c *execCounters) add(delta ExecStats) {
	c.mu.Lock()
	c.s.Runs += delta.Runs
	c.s.Simulated += delta.Simulated
	c.s.CacheHits += delta.CacheHits
	c.mu.Unlock()
}

func (c *execCounters) snapshot() ExecStats {
	c.mu.Lock()
	s := c.s
	c.mu.Unlock()
	s.Schema = SchemaVersion
	return s
}

// NewEngine validates cfg and returns an engine configured by it. This is
// the single validation point for campaign configurations — the CLI and
// the campaignd server both construct engines here.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}
