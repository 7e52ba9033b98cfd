package hypothesis

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunEndToEnd executes the small rank-count experiment and checks the
// whole report surface: verdict, delta, per-seed effects, arm
// fingerprints and passing invariants.
func TestRunEndToEnd(t *testing.T) {
	e := smallExperiment()
	rep, err := Run(e, Config{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", rep.Schema, SchemaVersion)
	}
	if rep.Delta.Component != "placement" {
		t.Errorf("delta = %q, want placement", rep.Delta.Component)
	}
	if len(rep.PerSeed) != len(e.Seeds) {
		t.Fatalf("%d per-seed effects for %d seeds", len(rep.PerSeed), len(e.Seeds))
	}
	if len(rep.Arms) != 2*len(e.Seeds) {
		t.Errorf("%d arm summaries, want %d", len(rep.Arms), 2*len(e.Seeds))
	}
	for _, a := range rep.Arms {
		if a.Runs != 1 || len(a.SHA256) != 64 {
			t.Errorf("arm %s/%d: runs=%d sha=%q", a.Arm, a.Seed, a.Runs, a.SHA256)
		}
	}
	// 4 → 9 ranks on a fixed grid must speed LU up at every seed.
	for _, s := range rep.PerSeed {
		if s.Effect >= 0 {
			t.Errorf("seed %d effect %v — more ranks did not reduce sim_us", s.Seed, s.Effect)
		}
	}
	if rep.Verdict != Confirmed {
		t.Errorf("verdict = %q, want %q (effect %+v)", rep.Verdict, Confirmed, rep.Effect)
	}
	if !rep.InvariantsPass() {
		t.Errorf("invariants violated: %+v", rep.Invariants)
	}
	if len(rep.Invariants) != len(invariants) {
		t.Errorf("%d invariant results, want %d", len(rep.Invariants), len(invariants))
	}
}

// TestRunReportDeterminism: the same experiment under different worker and
// shard configurations yields byte-identical JSON and Markdown reports —
// the property CI gates on.
func TestRunReportDeterminism(t *testing.T) {
	e := smallExperiment()
	configs := []Config{
		{Workers: 1, Shards: 0}, // shards clamp to 2
		{Workers: 4, Shards: 3},
		{Workers: 2, Shards: 5},
	}
	var wantJSON, wantMD []byte
	for i, cfg := range configs {
		rep, err := Run(e, cfg)
		if err != nil {
			t.Fatalf("Run(%+v): %v", cfg, err)
		}
		var j, m bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if err := rep.WriteMarkdown(&m); err != nil {
			t.Fatalf("WriteMarkdown: %v", err)
		}
		if i == 0 {
			wantJSON, wantMD = j.Bytes(), m.Bytes()
			continue
		}
		if !bytes.Equal(j.Bytes(), wantJSON) {
			t.Errorf("JSON report differs between %+v and %+v", configs[0], cfg)
		}
		if !bytes.Equal(m.Bytes(), wantMD) {
			t.Errorf("Markdown report differs between %+v and %+v", configs[0], cfg)
		}
	}
	// The JSON must round-trip and carry the schema marker jq gates on.
	var decoded map[string]any
	if err := json.Unmarshal(wantJSON, &decoded); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if v, ok := decoded["schema_version"].(float64); !ok || int(v) != SchemaVersion {
		t.Errorf("schema_version = %v", decoded["schema_version"])
	}
}

// TestRunRejectsInvalidExperiment: Run revalidates rather than trusting
// callers.
func TestRunRejectsInvalidExperiment(t *testing.T) {
	e := smallExperiment()
	e.Seeds = []uint64{1}
	if _, err := Run(e, Config{}); err == nil {
		t.Error("Run accepted a 1-seed experiment")
	}
}

// TestConfigNormalize: every configuration resolves to two canonical
// (shards ≥ 2) execution profiles that differ in both workers and shards.
func TestConfigNormalize(t *testing.T) {
	for _, cfg := range []Config{{}, {Workers: 1, Shards: 1}, {Workers: 8, Shards: 4}} {
		p, a := cfg.normalize()
		if p.Shards < 2 || a.Shards < 2 {
			t.Errorf("%+v: shards %d/%d below the canonical family", cfg, p.Shards, a.Shards)
		}
		if p.Shards == a.Shards {
			t.Errorf("%+v: executions share shard count %d", cfg, p.Shards)
		}
		if p.Workers == a.Workers {
			t.Errorf("%+v: executions share worker count %d", cfg, p.Workers)
		}
	}
}

// TestBuiltinSuiteWellFormed: every builtin experiment validates, carries
// a machine-checkable single delta at every declared seed, and has a
// unique ID resolvable through BuiltinByID.
func TestBuiltinSuiteWellFormed(t *testing.T) {
	suite := Builtin()
	if len(suite) < 5 {
		t.Fatalf("builtin suite has %d experiments, want ≥ 5", len(suite))
	}
	seen := map[string]bool{}
	for _, e := range suite {
		if seen[e.ID] {
			t.Errorf("duplicate builtin ID %q", e.ID)
		}
		seen[e.ID] = true
		if err := e.Validate(); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		for _, seed := range e.Seeds {
			if _, err := e.CheckDelta(seed); err != nil {
				t.Errorf("%s seed %d: %v", e.ID, seed, err)
			}
		}
		got, ok := BuiltinByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("BuiltinByID(%q) = %v, %v", e.ID, got.ID, ok)
		}
	}
	if _, ok := BuiltinByID("no-such-experiment"); ok {
		t.Error("BuiltinByID resolved an unknown ID")
	}
}
