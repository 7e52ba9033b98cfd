package campaign

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/topo"
)

// marshalRows renders results exactly as the JSONL output would.
func marshalRows(t *testing.T, results []RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomizedSpec builds a deterministic pseudo-random sweep: presets,
// grids, tile heights, machines and LogGP perturbations drawn from pools
// sized so the expansion comfortably exceeds n runs with no duplicate
// content keys inside one expansion.
func randomizedSpec(rng *rand.Rand) Spec {
	presets := []string{"lu", "sweep3d", "chimaera"}
	cubes := []int{12, 16, 24}
	// Draw three distinct (preset, grid, htile) combinations — a spec
	// listing the same app twice is rejected at validation.
	var combos []AppDim
	for _, p := range presets {
		for _, c := range cubes {
			for h := 1; h <= 3; h++ {
				combos = append(combos, AppDim{
					Preset: p,
					Grid:   &config.GridSpec{Nx: c, Ny: c, Nz: c},
					Htile:  h,
				})
			}
		}
	}
	rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	apps := combos[:3]
	overrides := []ParamOverride{{Name: "baseline"}}
	for i := 0; i < 3; i++ {
		overrides = append(overrides, ParamOverride{
			Name: fmt.Sprintf("ov%d", i),
			Scale: map[string]float64{
				"L": 0.5 + rng.Float64()*3.5,
				"G": 0.5 + rng.Float64()*1.5,
			},
		})
	}
	return Spec{
		Name:       "randomized",
		Iterations: 1,
		Apps:       apps,
		Machines: []MachineDim{
			{MachineSpec: config.MachineSpec{Preset: "xt4", CoresPerNode: 1}},
			{MachineSpec: config.MachineSpec{Preset: "xt4", CoresPerNode: 2}},
		},
		Ranks: []int{4, 16},
		LogGP: overrides,
	}
}

// TestCacheHitsByteIdentical is the serving layer's core property: across
// 40 randomized runs, a warm-cache pass produces byte-identical JSONL to
// the cold pass that filled the cache, and every warm run is served from
// the store.
func TestCacheHitsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	spec := randomizedSpec(rng)
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 40 {
		t.Fatalf("randomized spec expanded to %d runs, want ≥ 40", len(runs))
	}
	runs = runs[:40]

	store := NewMemoryStore(0)
	cold, err := NewEngine(Config{Workers: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Execute(runs)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewEngine(Config{Workers: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.Execute(runs)
	if err != nil {
		t.Fatal(err)
	}

	coldRows, warmRows := marshalRows(t, coldRes), marshalRows(t, warmRes)
	if !bytes.Equal(coldRows, warmRows) {
		t.Error("warm-cache JSONL differs from cold run")
	}
	if st := warm.Stats(); st.CacheHits != len(runs) || st.Simulated != 0 {
		t.Errorf("warm pass: %d cache hits, %d simulated; want %d hits, 0 simulated",
			st.CacheHits, st.Simulated, len(runs))
	}
	if st := cold.Stats(); st.Simulated != len(runs) {
		t.Errorf("cold pass simulated %d of %d", st.Simulated, len(runs))
	}
}

// TestContentKeyProperties pins what is — and is not — part of a run's
// identity.
func TestContentKeyProperties(t *testing.T) {
	runs, err := Example().Expand()
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	k1, scratch := r.ContentKey(KeyMode{}, nil)
	k2, scratch := r.ContentKey(KeyMode{}, scratch)
	if k1 != k2 {
		t.Error("ContentKey is not deterministic")
	}
	if kh, _ := r.ContentKey(KeyMode{Hist: true}, scratch); kh == k1 {
		t.Error("Hist mode must change the key (histograms change row bytes)")
	}
	if kc, _ := r.ContentKey(KeyMode{Canon: true}, scratch); kc == k1 {
		t.Error("canonical event order must change the key")
	}
	// A different run from the same sweep must not collide.
	if ko, _ := runs[1].ContentKey(KeyMode{}, nil); ko == k1 {
		t.Errorf("runs %s and %s share a content key", r.Key(), runs[1].Key())
	}
	// Display coordinates stay out of the key: the same physics under a
	// different index/campaign label is the same content.
	relabeled := r
	relabeled.Index = 99
	relabeled.Campaign = "other"
	relabeled.Machine = "renamed machine"
	relabeled.Override = "renamed override"
	if kr, _ := relabeled.ContentKey(KeyMode{}, nil); kr != k1 {
		t.Error("relabeling a run changed its content key")
	}
}

// TestMissPathAllocFree pins the acceptance criterion that a cache lookup
// adds no allocations on the miss path: neither the store probe nor a
// scratch-reusing key computation allocates in steady state.
func TestMissPathAllocFree(t *testing.T) {
	store := NewMemoryStore(16)
	runs, err := Example().Expand()
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	_, scratch := r.ContentKey(KeyMode{}, nil) // grow the scratch once
	var key RunKey
	if n := testing.AllocsPerRun(100, func() {
		key, scratch = r.ContentKey(KeyMode{}, scratch)
		store.Get(key)
	}); n != 0 {
		t.Errorf("miss path allocates %.1f objects per lookup, want 0", n)
	}
}

func TestMemoryStoreLRU(t *testing.T) {
	store := NewMemoryStore(2)
	k := func(i byte) RunKey { var k RunKey; k[0] = i; return k }
	store.Put(k(1), RunResult{Index: 1})
	store.Put(k(2), RunResult{Index: 2})
	store.Get(k(1)) // 1 is now most recent
	store.Put(k(3), RunResult{Index: 3})
	if _, ok := store.Get(k(2)); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := store.Get(k(1)); !ok {
		t.Error("recently-used entry was evicted")
	}
	if _, ok := store.Get(k(3)); !ok {
		t.Error("newest entry missing")
	}
	st := store.Stats()
	if st.Entries != 2 || st.Puts != 3 {
		t.Errorf("stats = %+v, want 2 entries, 3 puts", st)
	}
}

// TestDiskStoreReload round-trips results through a store directory: a
// torn tail from a killed writer is skipped, every cache*.jsonl file in the
// directory is loaded whichever file the reopened store appends to, and
// other files are not. The reloaded result keeps every content field, and
// the row built from it is the row that was put, byte for byte; the run's
// coordinates are not the store's to keep.
func TestDiskStoreReload(t *testing.T) {
	var r Run
	for _, run := range mustExpand(t, Topologies()) {
		if run.mach.Interconnect.Kind != topo.Bus {
			r = run
			break
		}
	}
	o := outcome{
		model: 101.25, sim: 99.5,
		events: 1234, messages: 56, bytes: 7890,
		busWait: 1.5, linkWait: 2.25, linkQueued: 3, maxLinkUtil: 0.75,
		hists: &RunHists{
			RecvWait:   HistSummary{N: 4, P50: 1, P90: 2, P99: 3},
			MsgLatency: HistSummary{N: 5, P50: 1.5, P90: 2.5, P99: 3.5},
			LinkDelay:  &HistSummary{N: 6, P50: 0.5, P90: 0.75, P99: 1},
		},
	}
	want := r.row(o)

	dir := filepath.Join(t.TempDir(), "sub")
	store := openStore(t, dir, StoreFile(0, 1))
	var k RunKey
	k[0] = 7
	store.Put(k, want)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a mid-write kill: append a truncated record.
	f, err := os.OpenFile(filepath.Join(dir, "cache.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema_version":1,"key":"dead`)
	f.Close()
	// A record in a file outside the store's name pattern is not loaded.
	var other RunKey
	other[0] = 8
	ignored := `{"schema_version":1,"key":"` + other.String() + `","row":{}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "ckpt-0-24.jsonl"), []byte(ignored), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened := openStore(t, dir, StoreFile(1, 2))
	defer reopened.Close()
	got, ok := reopened.Get(k)
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if back := outcomeOf(&got); !reflect.DeepEqual(back, o) {
		t.Errorf("reloaded content %+v, want %+v", back, o)
	}
	if rebuilt, put := marshalRows(t, []RunResult{r.row(outcomeOf(&got))}), marshalRows(t, []RunResult{want}); !bytes.Equal(rebuilt, put) {
		t.Errorf("row rebuilt from the reloaded result:\n%s\nwant the row put:\n%s", rebuilt, put)
	}
	if st := reopened.Stats(); st.Entries != 1 {
		t.Errorf("reopened store has %d entries, want 1 (torn tail and foreign files must be skipped)", st.Entries)
	}

	for _, name := range []string{"other.jsonl", "cache.json", filepath.Join("sub", "cache.jsonl")} {
		if s, err := OpenDiskStore(dir, name); err == nil {
			s.Close()
			t.Errorf("OpenDiskStore accepted file name %q, which a later open would not load", name)
		}
	}
}

// TestDiskStoreKeepsFailedAppend: a record the store could not append is
// not indexed, and Close reports the failure — the store is a campaign's
// resume point, so a lost record must fail the campaign.
func TestDiskStoreKeepsFailedAppend(t *testing.T) {
	store := openStore(t, t.TempDir(), StoreFile(0, 1))
	store.f.Close() // the next append fails, as on a full disk
	var k RunKey
	k[0] = 9
	store.Put(k, RunResult{Schema: SchemaVersion, App: "LU"})
	if _, ok := store.Get(k); ok {
		t.Error("a failed append was indexed")
	}
	if err := store.Close(); err == nil || !strings.Contains(err.Error(), "campaign: cache:") {
		t.Errorf("Close = %v, want the failed append", err)
	}
}

// openStore opens a DiskStore in dir that appends to name.
func openStore(t *testing.T, dir, name string) *DiskStore {
	t.Helper()
	store, err := OpenDiskStore(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// exampleGolden is the committed JSONL of the example campaign: every
// store path below must reproduce it byte for byte.
func exampleGolden(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile("testdata/example_golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// executePart runs range part `part` of `parts` of the example campaign
// into the store directory dir, as `campaign -range part/parts -cache-dir
// dir` does.
func executePart(t *testing.T, dir string, part, parts, workers int) []RunResult {
	t.Helper()
	store := openStore(t, dir, StoreFile(part, parts))
	runs := mustExpand(t, Example())
	rg := Ranges(len(runs), parts)[part]
	res, err := newEngine(t, Config{Workers: workers, Store: store}).Execute(runs[rg.Lo:rg.Hi])
	if err != nil {
		t.Fatalf("part %d/%d: %v", part, parts, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// mergeStore merges the example campaign from the store directory dir
// under cfg's key mode, checking that the merge simulated nothing.
func mergeStore(t *testing.T, dir string, cfg Config) ([]byte, error) {
	t.Helper()
	store := openStore(t, dir, StoreFile(0, 1))
	defer store.Close()
	cfg.Store = store
	eng := newEngine(t, cfg)
	var buf bytes.Buffer
	err := eng.Merge(mustExpand(t, Example()), &buf)
	if st := eng.Stats(); st.Runs != 0 || store.Stats().Puts != 0 {
		t.Errorf("merge executed runs: %+v, %d puts", st, store.Stats().Puts)
	}
	return buf.Bytes(), err
}

// TestWarmStoresMatchGolden: the example campaign served from a warm
// MemoryStore and from a reopened DiskStore is the golden JSONL, every run
// a hit.
func TestWarmStoresMatchGolden(t *testing.T) {
	want := exampleGolden(t)
	check := func(name string, store ResultStore, hits int) {
		t.Helper()
		eng := newEngine(t, Config{Workers: 4, Store: store})
		res, err := eng.Execute(mustExpand(t, Example()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(marshalRows(t, res), want) {
			t.Errorf("%s: JSONL differs from the golden", name)
		}
		if st := eng.Stats(); st.CacheHits != hits || st.Simulated != len(res)-hits {
			t.Errorf("%s: %d hits, %d simulated; want %d hits", name, st.CacheHits, st.Simulated, hits)
		}
	}
	mem := NewMemoryStore(0)
	check("cold memory store", mem, 0)
	check("warm memory store", mem, 24)

	dir := t.TempDir()
	disk := openStore(t, dir, StoreFile(0, 1))
	check("cold disk store", disk, 0)
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	disk = openStore(t, dir, StoreFile(0, 1))
	check("reopened disk store", disk, 24)
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecordedRunIsStored: the flight-recorded run (the first of
// the list) always simulates, so its recorder fills even on a warm store,
// and its result is stored — a merge after a traced range part must find
// it.
func TestFlightRecordedRunIsStored(t *testing.T) {
	want := exampleGolden(t)
	store := NewMemoryStore(0)
	for pass, hits := range []int{0, 23} {
		rec := &obs.Recorder{Spans: true}
		eng := newEngine(t, Config{Workers: 2, Store: store, Obs: rec})
		res, err := eng.Execute(mustExpand(t, Example()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalRows(t, res), want) {
			t.Errorf("pass %d: JSONL differs from the golden", pass)
		}
		if st := eng.Stats(); st.CacheHits != hits || st.Simulated != 24-hits {
			t.Errorf("pass %d: %d hits, %d simulated; want %d hits", pass, st.CacheHits, st.Simulated, hits)
		}
		if len(rec.SpanList()) == 0 {
			t.Errorf("pass %d: the recorded run left no spans", pass)
		}
	}
	if st := store.Stats(); st.Entries != 24 {
		t.Errorf("store holds %d runs, want all 24 (the recorded one included)", st.Entries)
	}
}

func TestRanges(t *testing.T) {
	for _, tc := range []struct{ n, k, parts int }{
		{24, 4, 4}, {24, 1, 1}, {10, 3, 3}, {3, 8, 3}, {0, 4, 0}, {5, 0, 1},
	} {
		rs := Ranges(tc.n, tc.k)
		if len(rs) != tc.parts {
			t.Errorf("Ranges(%d,%d) has %d parts, want %d", tc.n, tc.k, len(rs), tc.parts)
			continue
		}
		next, minLen, maxLen := 0, tc.n, 0
		for _, r := range rs {
			if r.Lo != next {
				t.Errorf("Ranges(%d,%d): gap before %+v", tc.n, tc.k, r)
			}
			next = r.Hi
			minLen = min(minLen, r.Hi-r.Lo)
			maxLen = max(maxLen, r.Hi-r.Lo)
		}
		if len(rs) > 0 && next != tc.n {
			t.Errorf("Ranges(%d,%d) covers [0,%d), want [0,%d)", tc.n, tc.k, next, tc.n)
		}
		if len(rs) > 0 && maxLen-minLen > 1 {
			t.Errorf("Ranges(%d,%d) sizes spread %d..%d, want balanced", tc.n, tc.k, minLen, maxLen)
		}
	}
}

// TestMergeByteIdenticalAcrossPartitionings is the acceptance matrix: the
// JSONL merged from a store directory is the golden, byte for byte, across
// {1,4} ranges × {1,8} workers × {cold, warm} store.
func TestMergeByteIdenticalAcrossPartitionings(t *testing.T) {
	want := exampleGolden(t)
	warmDir := t.TempDir()
	for _, parts := range []int{1, 4} {
		for _, workers := range []int{1, 8} {
			for _, cache := range []string{"cold", "warm"} {
				name := fmt.Sprintf("ranges=%d/workers=%d/%s", parts, workers, cache)
				dir := t.TempDir()
				if cache == "warm" {
					dir = warmDir
				}
				for part := 0; part < parts; part++ {
					executePart(t, dir, part, parts, workers)
				}
				merged, err := mergeStore(t, dir, Config{})
				if err != nil {
					t.Fatalf("%s: merge: %v", name, err)
				}
				if !bytes.Equal(merged, want) {
					t.Errorf("%s: merged JSONL differs from the golden", name)
				}
			}
		}
	}
}

// TestMergeRefusesMissingRange: a merge over a store that lacks one range
// fails, names that range's first indices, writes nothing and simulates
// nothing; and since the key mode is part of every key, a complete store
// merged under another mode misses every run.
func TestMergeRefusesMissingRange(t *testing.T) {
	dir := t.TempDir()
	for _, part := range []int{0, 1, 3} {
		executePart(t, dir, part, 4, 2)
	}
	merged, err := mergeStore(t, dir, Config{})
	if err == nil || !strings.Contains(err.Error(), "6 of 24 runs are not in the store; first missing indices [12 13 14 15 16 17]") {
		t.Errorf("merge with range 2/4 missing: %v", err)
	}
	if len(merged) != 0 {
		t.Errorf("a refused merge wrote %d bytes", len(merged))
	}

	executePart(t, dir, 2, 4, 2)
	if merged, err := mergeStore(t, dir, Config{}); err != nil || !bytes.Equal(merged, exampleGolden(t)) {
		t.Errorf("merge of all four ranges: %v", err)
	}
	if _, err := mergeStore(t, dir, Config{Hist: true}); err == nil || !strings.Contains(err.Error(), "24 of 24 runs") {
		t.Errorf("merge under another key mode: %v", err)
	}
	if err := newEngine(t, Config{}).Merge(mustExpand(t, Example()), io.Discard); err == nil {
		t.Error("merge without a store succeeded")
	}
}

// TestResumeSkipsCompleted kills-and-resumes in-process: a partial range
// leaves its results in the store directory, and a full re-run over the
// same directory serves exactly those runs as hits and simulates the rest.
func TestResumeSkipsCompleted(t *testing.T) {
	dir := t.TempDir()
	partial := executePart(t, dir, 0, 2, 2)

	store := openStore(t, dir, StoreFile(0, 1))
	defer store.Close()
	resumed := newEngine(t, Config{Workers: 2, Store: store})
	full, err := resumed.Execute(mustExpand(t, Example()))
	if err != nil {
		t.Fatal(err)
	}
	st := resumed.Stats()
	if st.CacheHits != len(partial) {
		t.Errorf("resume served %d runs from the store, want %d", st.CacheHits, len(partial))
	}
	if st.Simulated != len(full)-len(partial) {
		t.Errorf("resume simulated %d runs, want %d", st.Simulated, len(full)-len(partial))
	}
	if !bytes.Equal(marshalRows(t, full), exampleGolden(t)) {
		t.Error("resumed JSONL differs from the golden")
	}
}

// TestEditedSpecMissesStore: results stored for one spec must not be
// served for an edited spec whose runs land on the same indices.
func TestEditedSpecMissesStore(t *testing.T) {
	dir := t.TempDir()
	executePart(t, dir, 0, 1, 4)

	specB := Example()
	specB.Iterations = 2 // same shape, different physics
	store := openStore(t, dir, StoreFile(0, 1))
	defer store.Close()
	engB := newEngine(t, Config{Workers: 4, Store: store})
	resB, err := engB.Execute(mustExpand(t, specB))
	if err != nil {
		t.Fatal(err)
	}
	if st := engB.Stats(); st.CacheHits != 0 || st.Simulated != len(resB) {
		t.Errorf("stale results served: %d hits, %d simulated", st.CacheHits, st.Simulated)
	}
}

// TestSchemaVersionInRows: every JSONL row leads with schema_version 1.
func TestSchemaVersionInRows(t *testing.T) {
	eng := newEngine(t, Config{Workers: 4})
	res, err := eng.Execute(mustExpand(t, Example()))
	if err != nil {
		t.Fatal(err)
	}
	rows := marshalRows(t, res)
	for i, line := range bytes.Split(bytes.TrimSpace(rows), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"schema_version":1,`)) {
			t.Fatalf("row %d does not lead with schema_version 1: %.60s", i, line)
		}
	}
}
