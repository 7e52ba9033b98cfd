package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/logp"
	"repro/internal/obs"
)

// newEngine builds an engine from cfg, failing the test on a config error.
func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// mustExpand expands s, failing the test on a spec error.
func mustExpand(t testing.TB, s Spec) []Run {
	t.Helper()
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// specJSON is a small, fully explicit spec exercising every dimension.
const specJSON = `{
  "name": "unit",
  "iterations": 1,
  "apps": [
    {"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12}},
    {"preset": "lu", "grid": {"nx": 12, "ny": 12, "nz": 12}}
  ],
  "machines": [
    {"preset": "xt4", "cores_per_node": 2},
    {"preset": "xt4", "cores_per_node": 1, "label": "xt4 single"}
  ],
  "ranks": [4, 9],
  "loggp": [
    {"name": "baseline"},
    {"name": "slow", "scale": {"L": 2}}
  ]
}`

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*2*2*2 {
		t.Fatalf("expanded %d runs, want 16", len(runs))
	}
	// Deterministic order: app-major, then machine, then override, then rank.
	if runs[0].App != "Sweep3D" || runs[0].P != 4 || runs[0].Override != "baseline" ||
		runs[0].Machine != "Cray XT4 (2 cores/node)" {
		t.Errorf("first run %+v", runs[0])
	}
	if runs[1].P != 9 || runs[2].Override != "slow" || runs[8].App != "LU" {
		t.Errorf("order wrong: %v %v %v", runs[1].Key(), runs[2].Key(), runs[8].Key())
	}
	for i, r := range runs {
		if r.Index != i {
			t.Fatalf("run %d has index %d", i, r.Index)
		}
	}
}

// TestSpecErrors is the table-driven parsing contract: unknown fields,
// empty sweep dimensions and invalid combinations all fail with actionable
// messages.
func TestSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{
			"unknown top-level field",
			`{"name": "x", "bogus": 1, "apps": [], "machines": [], "ranks": []}`,
			"bogus",
		},
		{
			"unknown app field",
			`{"name": "x", "apps": [{"preset": "lu", "grib": {}}], "machines": [{"preset": "xt4"}], "ranks": [4]}`,
			"grib",
		},
		{
			"missing name",
			`{"apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4]}`,
			"needs a name",
		},
		{
			"no apps",
			`{"name": "x", "apps": [], "machines": [{"preset": "xt4"}], "ranks": [4]}`,
			"no apps",
		},
		{
			"no machines",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [], "ranks": [4]}`,
			"no machines",
		},
		{
			"no ranks",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": []}`,
			"no rank counts",
		},
		{
			"non-positive rank",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4, 0]}`,
			"must be positive",
		},
		{
			"unknown preset",
			`{"name": "x", "apps": [{"preset": "hydra", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4]}`,
			"unknown app preset",
		},
		{
			"preset without grid",
			`{"name": "x", "apps": [{"preset": "lu"}], "machines": [{"preset": "xt4"}], "ranks": [4]}`,
			"needs a grid",
		},
		{
			"unknown machine preset",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "cm5"}], "ranks": [4]}`,
			"unknown machine preset",
		},
		{
			"unknown loggp key",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4], "loggp": [{"name": "bad", "scale": {"latency": 2}}]}`,
			"unknown parameter",
		},
		{
			"override needs a name",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4], "loggp": [{"scale": {"L": 2}}]}`,
			"needs a name",
		},
		{
			"negative override result",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4], "loggp": [{"name": "neg", "set": {"L": -1}}]}`,
			"invalid parameters",
		},
		{
			"duplicate override",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4], "loggp": [{"name": "a"}, {"name": "a"}]}`,
			"twice",
		},
		{
			"duplicate machine label",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}, {"preset": "xt4"}], "ranks": [4]}`,
			"distinct label",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.json))
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestExpandRejectsOversizedDecomposition: more processor columns than grid
// cells is an invalid rank/grid combination and must fail at expansion with
// the offending run named.
func TestExpandRejectsOversizedDecomposition(t *testing.T) {
	s, err := ParseSpec([]byte(`{
	  "name": "big",
	  "apps": [{"preset": "lu", "grid": {"nx": 8, "ny": 8, "nz": 8}}],
	  "machines": [{"preset": "xt4"}],
	  "ranks": [256]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Expand()
	if err == nil {
		t.Fatal("256 ranks on an 8x8x8 grid accepted")
	}
	for _, want := range []string{"LU", "P=256", "exceeds"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestDeterministicAcrossWorkerCounts is the campaign determinism
// contract: identical JSONL bytes for any worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	s, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(workers int) []byte {
		res, err := newEngine(t, Config{Workers: workers}).Execute(runs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	if n := bytes.Count(serial, []byte("\n")); n != len(runs) {
		t.Fatalf("JSONL has %d rows, want %d", n, len(runs))
	}
	for _, workers := range []int{2, 8} {
		if par := encode(workers); !bytes.Equal(serial, par) {
			t.Errorf("workers=%d produced different JSONL bytes than workers=1", workers)
		}
	}
}

// TestDeterministicAcrossShardCounts extends the determinism contract to
// the simulator's conservative-parallel mode: a sharded campaign emits
// byte-identical JSONL for every shard count, whether sharded by the spec
// or by the engine override. The default serial engine is deliberately not
// the reference here: it keeps the legacy scheduling-order tiebreak, whose
// bus-contention statistics can differ microscopically from the canonical
// shard-count-independent order on tie-heavy configurations (this spec's
// single-core LU runs are one; see internal/simmpi/parallel.go). Serial
// equivalence on the paper's benchmark configurations is asserted in
// internal/simmpi/parallel_test.go.
func TestDeterministicAcrossShardCounts(t *testing.T) {
	s, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	encode := func(s Spec, engineShards int) []byte {
		runs, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		res, err := newEngine(t, Config{Workers: 2, Shards: engineShards}).Execute(runs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	withShards := func(k int) Spec {
		sh := s
		sh.Shards = k
		return sh
	}
	base := encode(withShards(2), 0)
	if n := bytes.Count(base, []byte("\n")); n != 16 {
		t.Fatalf("JSONL has %d rows, want 16", n)
	}
	for _, k := range []int{4, 8} {
		if got := encode(withShards(k), 0); !bytes.Equal(base, got) {
			t.Errorf("spec shards=%d produced different JSONL bytes than shards=2", k)
		}
	}
	if got := encode(s, 2); !bytes.Equal(base, got) {
		t.Error("engine shards=2 produced different JSONL bytes than spec shards=2")
	}
}

// overflowSpec is the example campaign with a second LogGP override that
// scales the latency to 1e308 µs. Its runs overflow the simulated clock,
// which the event engine refuses with a panic; two LU runs finish instead
// with a non-finite model time.
func overflowSpec() Spec {
	s := Example()
	s.Name = "overflow"
	s.LogGP = []ParamOverride{{Name: "baseline"}, {Name: "x", Scale: map[string]float64{"L": 1e308}}}
	return s
}

// TestPanickingRunFailsAlone: a run that panics fails alone. Its row
// carries the panic value, Execute's error names the first failed run, no
// failed run is stored, and the worker that ran it carries on with a fresh
// simulator: every baseline row equals the example campaign's row of the
// same run, serial and sharded.
func TestPanickingRunFailsAlone(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// One worker, so the runs after a panic go to the worker that
			// dropped its simulator.
			ref, err := newEngine(t, Config{Workers: 1, Shards: shards}).Execute(mustExpand(t, Example()))
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]RunResult{}
			for _, r := range ref {
				want[fmt.Sprintf("%s|%s|%s|%d", r.App, r.Machine, r.Override, r.P)] = r
			}

			store := NewMemoryStore(0)
			runs := mustExpand(t, overflowSpec())
			res, err := newEngine(t, Config{Workers: 1, Shards: shards, Store: store}).Execute(runs)
			if err == nil || !strings.HasPrefix(err.Error(), "campaign: run "+runs[3].Key()+": panic: des: ") {
				t.Fatalf("Execute error %v, want run 3 (%s) named with its panic", err, runs[3].Key())
			}
			ok := 0
			for i, r := range res {
				switch {
				case r.Override == "baseline":
					w := want[fmt.Sprintf("%s|%s|%s|%d", r.App, r.Machine, r.Override, r.P)]
					w.Index, w.Campaign = r.Index, r.Campaign
					if got, want := marshalRows(t, []RunResult{r}), marshalRows(t, []RunResult{w}); !bytes.Equal(got, want) {
						t.Errorf("row %d:\n%s\nwant the example's\n%s", i, got, want)
					}
					ok++
				case r.App == "LU" && r.P == 4:
					if !strings.HasPrefix(r.Error, "campaign: non-finite result: model +Inf µs") {
						t.Errorf("row %d error %q, want the non-finite model time", i, r.Error)
					}
				case !strings.HasPrefix(r.Error, "panic: des: ") || !strings.HasSuffix(r.Error, "des: non-finite event time +Inf"):
					// A shard run on a helper goroutine panics wrapped in
					// a message that names the shard.
					t.Errorf("row %d error %q, want the panic value's first line", i, r.Error)
				}
			}
			if st := store.Stats(); st.Entries != ok || st.Puts != uint64(ok) {
				t.Errorf("store %+v, want the %d runs that succeeded and no other", st, ok)
			}
			if err := WriteJSONL(io.Discard, res); err != nil {
				t.Errorf("failed rows do not encode: %v", err)
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	s, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemoryStore(0)
	res, err := newEngine(t, Config{Workers: 4, Store: store}).Execute(mustExpand(t, s))
	if err != nil {
		t.Fatal(err)
	}
	sums := Summarize(res)
	// 2 apps + 2 machines + 2 rank groups + 2 overrides.
	if len(sums) != 8 {
		t.Fatalf("got %d summaries, want 8", len(sums))
	}
	byDim := map[string][]GroupSummary{}
	for _, g := range sums {
		byDim[g.Dimension] = append(byDim[g.Dimension], g)
		if g.Runs != 8 {
			t.Errorf("%s=%s groups %d runs, want 8", g.Dimension, g.Value, g.Runs)
		}
		if g.SimP50 <= 0 || g.SimMax < g.SimP90 || g.SimP90 < g.SimP50 {
			t.Errorf("%s=%s percentiles out of order: %v %v %v",
				g.Dimension, g.Value, g.SimP50, g.SimP90, g.SimMax)
		}
		total := 0
		for _, n := range g.Bands {
			total += n
		}
		if total != 8 {
			t.Errorf("%s=%s bands cover %d runs", g.Dimension, g.Value, total)
		}
	}
	if byDim["app"][0].Value != "Sweep3D" || byDim["ranks"][0].Value != "P=4" {
		t.Errorf("group order not first-appearance: %+v", byDim)
	}
	var buf bytes.Buffer
	RenderSummary(&buf, s.Name, res, sums)
	if out := buf.String(); !strings.Contains(out, "campaign unit: 16 runs") ||
		!strings.Contains(out, "total simulated work: 16 runs,") {
		t.Errorf("summary render:\n%s", out)
	}

	// Warm: every row is served from the store, so the footer has no
	// simulator time to divide by.
	warm, err := newEngine(t, Config{Workers: 4, Store: store}).Execute(mustExpand(t, s))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	RenderSummary(&buf, s.Name, warm, Summarize(warm))
	if out := buf.String(); !strings.Contains(out, "campaign unit: 16 runs") ||
		!strings.HasSuffix(out, "\n  no runs simulated\n") {
		t.Errorf("warm summary render:\n%s", out)
	}
}

func TestFilter(t *testing.T) {
	s, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFilter("app=LU, p=4|9, override=baseline")
	if err != nil {
		t.Fatal(err)
	}
	got := f.Apply(runs)
	if len(got) != 4 { // 1 app × 2 machines × 1 override × 2 ranks
		t.Fatalf("filter kept %d runs, want 4", len(got))
	}
	for i, r := range got {
		if r.App != "LU" || r.Override != "baseline" {
			t.Errorf("kept %s", r.Key())
		}
		if r.Index != i {
			t.Errorf("run %d reindexed to %d", i, r.Index)
		}
	}
	if _, err := ParseFilter("planet=mars"); err == nil {
		t.Error("unknown filter key accepted")
	}
	if _, err := ParseFilter("p=two"); err == nil {
		t.Error("non-numeric rank filter accepted")
	}
	for _, expr := range []string{"app=LU|", "app=|LU", "machine=a||b", "app=LU| ,p=4", "p=4|", "grid=a| |b"} {
		_, err := ParseFilter(expr)
		if err == nil || !strings.Contains(err.Error(), "empty alternative") {
			t.Errorf("ParseFilter(%q) = %v, want an empty-alternative error", expr, err)
		}
	}
}

func TestBuiltins(t *testing.T) {
	for _, name := range BuiltinNames() {
		s, ok := Builtin(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		runs, err := s.Expand()
		if err != nil {
			t.Fatalf("builtin %q: %v", name, err)
		}
		if name == "example" && len(runs) != 24 {
			t.Errorf("example has %d runs, want 24", len(runs))
		}
		if name == "flagship" && len(runs) < 300 {
			t.Errorf("flagship has %d runs, want ≥ 300", len(runs))
		}
		if name == "topologies" && len(runs) != 24 {
			t.Errorf("topologies has %d runs, want 24", len(runs))
		}
		if name == "collectives" {
			if len(runs) != 45 {
				t.Errorf("collectives has %d runs, want 45", len(runs))
			}
			for _, r := range runs {
				if r.Collective == "" {
					t.Errorf("collectives run %s carries no collective", r.Key())
				}
			}
		}
	}
	if _, ok := Builtin("nope"); ok {
		t.Error("unknown builtin resolved")
	}
}

// TestHtileSweep: tile height is a legitimate sweep dimension (paper
// Figure 5) — two entries differing only in htile are distinct apps and
// their runs are distinguishable in output.
func TestHtileSweep(t *testing.T) {
	s, err := ParseSpec([]byte(`{
	  "name": "htile",
	  "apps": [
	    {"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12}, "htile": 1},
	    {"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12}, "htile": 4}
	  ],
	  "machines": [{"preset": "xt4", "cores_per_node": 2}],
	  "ranks": [4]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := newEngine(t, Config{Workers: 2}).Execute(mustExpand(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Htile != 1 || res[1].Htile != 4 {
		t.Fatalf("htile runs: %+v", res)
	}
	if res[0].SimMicros == res[1].SimMicros {
		t.Error("different tile heights simulated identically")
	}
}

// TestConvergenceSweep: the collective algorithm is a legitimate sweep
// dimension — entries differing only in convergence algorithm are distinct
// apps, their rows carry the collective label, and the simulated algorithms
// produce different times.
func TestConvergenceSweep(t *testing.T) {
	s, err := ParseSpec([]byte(`{
	  "name": "conv",
	  "apps": [
	    {"preset": "lu", "grid": {"nx": 12, "ny": 12, "nz": 12}},
	    {"preset": "lu", "grid": {"nx": 12, "ny": 12, "nz": 12},
	     "convergence": {"bytes": 65536, "alg": "ring"}},
	    {"preset": "lu", "grid": {"nx": 12, "ny": 12, "nz": 12},
	     "convergence": {"bytes": 65536, "alg": "recdouble"}}
	  ],
	  "machines": [{"preset": "xt4", "cores_per_node": 2}],
	  "ranks": [9]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := newEngine(t, Config{Workers: 2}).Execute(mustExpand(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d runs, want 3", len(res))
	}
	if res[0].Collective != "" ||
		res[1].Collective != "allreduce/ring/65536B" ||
		res[2].Collective != "allreduce/recdouble/65536B" {
		t.Fatalf("collective labels: %q, %q, %q", res[0].Collective, res[1].Collective, res[2].Collective)
	}
	if res[1].SimMicros == res[2].SimMicros {
		t.Error("ring and recursive-doubling convergence simulated identically")
	}
	if res[1].SimMicros <= res[0].SimMicros {
		t.Error("a 64KB per-iteration all-reduce cost nothing")
	}
}

// TestConvergenceConflicts rejects ambiguous convergence placement and
// unknown algorithms.
func TestConvergenceConflicts(t *testing.T) {
	if _, err := ParseSpec([]byte(`{
	  "name": "bad", "ranks": [4],
	  "machines": [{"preset": "xt4", "cores_per_node": 1}],
	  "apps": [{"convergence": {"bytes": 8, "alg": "quantum"},
	    "preset": "lu", "grid": {"nx": 12, "ny": 12, "nz": 12}}]
	}`)); err == nil {
		t.Error("unknown convergence algorithm accepted")
	}
	if _, err := ParseSpec([]byte(`{
	  "name": "bad", "ranks": [4],
	  "machines": [{"preset": "xt4", "cores_per_node": 1}],
	  "apps": [{"convergence": {"bytes": 0}, "preset": "lu",
	    "grid": {"nx": 12, "ny": 12, "nz": 12}}]
	}`)); err == nil {
		t.Error("non-positive convergence size accepted")
	}
	d := AppDim{
		Spec: &config.AppSpec{
			Name: "x",
			Grid: config.GridSpec{Nx: 8, Ny: 8, Nz: 8}, Wg: 0.5, Htile: 1,
			Corners: []string{"NW"}, Angles: 6, Iterations: 1,
			Convergence: &config.ConvergenceSpec{Bytes: 8},
		},
		Convergence: &config.ConvergenceSpec{Bytes: 16},
	}
	if _, err := d.resolve(); err == nil {
		t.Error("double convergence spec accepted")
	}
}

func TestFilterRejectsTrailingGarbage(t *testing.T) {
	if _, err := ParseFilter("p=64x128"); err == nil {
		t.Error("rank filter with trailing garbage accepted")
	}
}

func TestOverrideRejectsHAlias(t *testing.T) {
	// Only the Table 2 name "oh" is accepted — an "h" alias would let one
	// override map target the handshake field through two keys, with the
	// winner decided by map iteration order.
	ov := ParamOverride{Name: "x", Set: map[string]float64{"h": 1}}
	if _, err := ov.Apply(logp.XT4()); err == nil {
		t.Error(`"h" accepted as a parameter key`)
	}
	ov = ParamOverride{Name: "x", Set: map[string]float64{"oh": 1}}
	prm, err := ov.Apply(logp.XT4())
	if err != nil || prm.H != 1 {
		t.Errorf(`"oh" override: H=%v err=%v`, prm.H, err)
	}
}

// TestRecordedLinkTracksNamed: a routed run flight-recorded through the
// engine labels its timeline link tracks the way the interconnect names
// its links ("n<i>.±x" on a 2D torus), with no caller-side naming.
func TestRecordedLinkTracksNamed(t *testing.T) {
	s, err := ParseSpec([]byte(`{
	  "name": "routed",
	  "apps": [{"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12}}],
	  "machines": [{"preset": "xt4", "cores_per_node": 2, "interconnect": {"kind": "torus2d"}}],
	  "ranks": [16]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{Links: true}
	if _, err := newEngine(t, Config{Workers: 1, Obs: rec}).Execute(mustExpand(t, s)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteTimeline(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	torusLink := regexp.MustCompile(`^n[0-9]+\.[+-][xy]$`)
	tracks := 0
	for _, ev := range tf.TraceEvents {
		if ev.Name == "thread_name" && ev.Pid == 2 {
			tracks++
			if name, _ := ev.Args["name"].(string); !torusLink.MatchString(name) {
				t.Errorf("link track named %q, want n<i>.±x", name)
			}
		}
	}
	if tracks == 0 {
		t.Fatal("routed run produced no link tracks")
	}
}
