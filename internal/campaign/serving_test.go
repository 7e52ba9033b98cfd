package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
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

// TestDiskStoreReload round-trips results through the JSONL file,
// including survival of a torn tail from a killed writer.
func TestDiskStoreReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "cache.jsonl")
	store, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var k RunKey
	k[0] = 7
	want := RunResult{Schema: SchemaVersion, Index: 3, App: "LU", SimMicros: 12.5}
	store.Put(k, want)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a mid-write kill: append a truncated record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema_version":1,"key":"dead`)
	f.Close()

	reopened, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, ok := reopened.Get(k)
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if got.Index != want.Index || got.App != want.App || got.SimMicros != want.SimMicros {
		t.Errorf("reloaded %+v, want %+v", got, want)
	}
	if st := reopened.Stats(); st.Entries != 1 {
		t.Errorf("reopened store has %d entries, want 1 (torn tail must be skipped)", st.Entries)
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
			if r.Len() < minLen {
				minLen = r.Len()
			}
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
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
// merged JSONL is byte-identical across {1,4} ranges × {1,8} workers ×
// {cold, warm} cache.
func TestMergeByteIdenticalAcrossPartitionings(t *testing.T) {
	spec := Example()
	ref, err := NewEngine(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.ExecuteSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalRows(t, refRes)
	total := len(refRes)

	warmStore := NewMemoryStore(0)
	for _, parts := range []int{1, 4} {
		for _, workers := range []int{1, 8} {
			for _, cache := range []string{"cold", "warm"} {
				name := fmt.Sprintf("ranges=%d/workers=%d/%s", parts, workers, cache)
				ckpt := t.TempDir()
				var store ResultStore
				if cache == "warm" {
					store = warmStore
				}
				for part := 0; part < parts; part++ {
					eng, err := NewEngine(Config{
						Workers: workers, RangePart: part, RangeParts: parts,
						CheckpointDir: ckpt, Store: store,
					})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := eng.ExecuteSpec(spec); err != nil {
						t.Fatalf("%s part %d: %v", name, part, err)
					}
				}
				var merged bytes.Buffer
				if err := MergeCheckpoints(ckpt, total, &merged); err != nil {
					t.Fatalf("%s: merge: %v", name, err)
				}
				if !bytes.Equal(merged.Bytes(), want) {
					t.Errorf("%s: merged JSONL differs from single-process run", name)
				}
			}
		}
	}
}

// TestResumeSkipsCompleted kills-and-resumes in-process: a partial range
// leaves checkpoints behind, and a full re-run with the same directory
// recovers exactly those runs without re-simulating them.
func TestResumeSkipsCompleted(t *testing.T) {
	spec := Example()
	ckpt := t.TempDir()
	first, err := NewEngine(Config{Workers: 2, RangePart: 0, RangeParts: 2, CheckpointDir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := first.ExecuteSpec(spec)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := NewEngine(Config{Workers: 2, CheckpointDir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	full, err := resumed.ExecuteSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := resumed.Stats()
	if st.CheckpointHits != len(partial) {
		t.Errorf("resume recovered %d runs from checkpoints, want %d", st.CheckpointHits, len(partial))
	}
	if st.Simulated != len(full)-len(partial) {
		t.Errorf("resume simulated %d runs, want %d", st.Simulated, len(full)-len(partial))
	}

	// And the resumed output is byte-identical to a clean run.
	clean, err := NewEngine(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.ExecuteSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalRows(t, full), marshalRows(t, cleanRes)) {
		t.Error("resumed JSONL differs from clean run")
	}
}

// TestStaleCheckpointKeyMismatch: checkpoints recorded for one spec must
// not be served for an edited spec whose runs landed on the same indices.
func TestStaleCheckpointKeyMismatch(t *testing.T) {
	ckpt := t.TempDir()
	specA := Example()
	engA, err := NewEngine(Config{Workers: 4, CheckpointDir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engA.ExecuteSpec(specA); err != nil {
		t.Fatal(err)
	}

	specB := Example()
	specB.Iterations = 2 // same shape, different physics
	engB, err := NewEngine(Config{Workers: 4, CheckpointDir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := engB.ExecuteSpec(specB)
	if err != nil {
		t.Fatal(err)
	}
	if st := engB.Stats(); st.CheckpointHits != 0 || st.Simulated != len(resB) {
		t.Errorf("stale checkpoints served: %d hits, %d simulated", st.CheckpointHits, st.Simulated)
	}
}

func TestExecuteSpecErrorPaths(t *testing.T) {
	spec := Example()

	t.Run("unwritable output", func(t *testing.T) {
		blocker := filepath.Join(t.TempDir(), "file")
		if err := os.WriteFile(blocker, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(Config{Workers: 1, Output: filepath.Join(blocker, "out.jsonl")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ExecuteSpec(spec); err == nil {
			t.Error("unwritable output path did not fail")
		}
	})

	t.Run("invalid filter", func(t *testing.T) {
		if _, err := NewEngine(Config{Filter: "no-equals-sign"}); err == nil {
			t.Error("NewEngine accepted an unparseable filter")
		}
		if _, err := NewEngine(Config{Filter: "bogus-key=x"}); err == nil {
			t.Error("NewEngine accepted an unknown filter key")
		}
	})

	t.Run("zero-run expansion", func(t *testing.T) {
		eng, err := NewEngine(Config{Filter: "app=no-such-app"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ExecuteSpec(spec); err == nil {
			t.Error("empty filtered expansion did not fail")
		}
	})

	t.Run("invalid range", func(t *testing.T) {
		if _, err := NewEngine(Config{RangePart: 4, RangeParts: 4}); err == nil {
			t.Error("NewEngine accepted range part ≥ parts")
		}
		if _, err := NewEngine(Config{RangeParts: -1}); err == nil {
			t.Error("NewEngine accepted negative range parts")
		}
	})
}

// TestSchemaVersionInRows: every JSONL row leads with schema_version 1.
func TestSchemaVersionInRows(t *testing.T) {
	eng := newEngine(t, Config{Workers: 4})
	res, err := eng.ExecuteSpec(Example())
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
