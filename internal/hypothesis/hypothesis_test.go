package hypothesis

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// smallArm builds a tiny one-run LU arm the cheap tests perturb.
func smallArm(mutate func(*campaign.Spec)) campaign.Spec {
	g := config.GridSpec{Nx: 12, Ny: 12, Nz: 12}
	s := campaign.Spec{
		Name:       "arm",
		Iterations: 1,
		Apps: []campaign.AppDim{{
			Preset: "lu", Grid: &g,
			Workload: &config.WorkloadSpec{Dist: workload.DistLognormal, Sigma: 0.1, Seed: 1},
		}},
		Machines: []campaign.MachineDim{{MachineSpec: config.MachineSpec{Preset: "xt4", CoresPerNode: 2}}},
		Ranks:    []int{4},
	}
	if mutate != nil {
		mutate(&s)
	}
	return s
}

// smallExperiment is a valid single-delta experiment (rank count 4 vs 9).
func smallExperiment() Experiment {
	return Experiment{
		ID:         "test-ranks",
		Title:      "test",
		Hypothesis: "more ranks run faster",
		Metric:     "sim_us",
		Direction:  Decrease,
		MinEffect:  0.01,
		Seeds:      []uint64{1, 2, 3},
		Baseline:   smallArm(nil),
		Treatment:  smallArm(func(s *campaign.Spec) { s.Ranks = []int{9} }),
	}
}

func TestValidate(t *testing.T) {
	if err := smallExperiment().Validate(); err != nil {
		t.Fatalf("valid experiment rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Experiment)
		want   string
	}{
		{"empty id", func(e *Experiment) { e.ID = "" }, "needs an id"},
		{"id with slash", func(e *Experiment) { e.ID = "a/b" }, "filename stem"},
		{"no title", func(e *Experiment) { e.Title = "" }, "title"},
		{"bad metric", func(e *Experiment) { e.Metric = "wall_clock" }, "unknown metric"},
		{"bad direction", func(e *Experiment) { e.Direction = "sideways" }, "direction"},
		{"negative min effect", func(e *Experiment) { e.MinEffect = -1 }, "negative min effect"},
		{"two seeds", func(e *Experiment) { e.Seeds = []uint64{1, 2} }, "at least 3"},
		{"duplicate seeds", func(e *Experiment) { e.Seeds = []uint64{1, 2, 2} }, "twice"},
		{"no workload", func(e *Experiment) {
			e.Baseline.Apps[0].Workload = nil
			e.Treatment.Apps = []campaign.AppDim{{Preset: "lu", Grid: e.Treatment.Apps[0].Grid}}
		}, "inert"},
		{"invalid arm", func(e *Experiment) { e.Baseline.Ranks = nil }, "baseline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := smallExperiment()
			// Deep-copy the mutable slices the mutations touch.
			e.Baseline.Apps = append([]campaign.AppDim(nil), e.Baseline.Apps...)
			e.Treatment.Apps = append([]campaign.AppDim(nil), e.Treatment.Apps...)
			tc.mutate(&e)
			err := e.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestCheckDeltaSingle: a valid experiment reports its one differing
// component with both rendered values.
func TestCheckDeltaSingle(t *testing.T) {
	d, err := smallExperiment().CheckDelta(7)
	if err != nil {
		t.Fatalf("CheckDelta: %v", err)
	}
	if d.Component != "placement" {
		t.Errorf("delta component = %q, want placement", d.Component)
	}
	if d.Baseline == d.Treatment || d.Baseline == "" || d.Treatment == "" {
		t.Errorf("delta values %q vs %q must be distinct and non-empty", d.Baseline, d.Treatment)
	}
}

// TestCheckDeltaRejectsTwoDimensions: the acceptance-criterion case — an
// experiment whose arms differ in two dimensions (rank count AND
// interconnect) is rejected with both components named.
func TestCheckDeltaRejectsTwoDimensions(t *testing.T) {
	e := smallExperiment()
	e.Treatment = smallArm(func(s *campaign.Spec) {
		s.Ranks = []int{9}
		s.Machines[0].Interconnect = &topo.Spec{Kind: topo.Torus2D}
	})
	_, err := e.CheckDelta(7)
	if err == nil {
		t.Fatal("two-dimension experiment passed the single-delta check")
	}
	for _, want := range []string{"2 dimensions", "interconnect", "placement", "exactly one"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestCheckDeltaRejectsIdenticalArms: a zero-dimension experiment measures
// nothing; a seed-only "delta" collapses to this, because the harness
// substitutes the same seed into both arms.
func TestCheckDeltaRejectsIdenticalArms(t *testing.T) {
	e := smallExperiment()
	e.Treatment = smallArm(func(s *campaign.Spec) { s.Apps[0].Workload.Seed = 99 })
	_, err := e.CheckDelta(7)
	if err == nil || !strings.Contains(err.Error(), "identical in both arms") {
		t.Fatalf("identical arms not rejected: %v", err)
	}
}

// TestCheckDeltaRejectsMismatchedExpansion: arms of different run counts
// cannot pair up.
func TestCheckDeltaRejectsMismatchedExpansion(t *testing.T) {
	e := smallExperiment()
	e.Treatment = smallArm(func(s *campaign.Spec) { s.Ranks = []int{9, 16} })
	_, err := e.CheckDelta(7)
	if err == nil || !strings.Contains(err.Error(), "pair up") {
		t.Fatalf("mismatched expansion not rejected: %v", err)
	}
}

// TestWithSeed: the substitution reaches both workload carriers, renames
// the spec, and leaves the original untouched.
func TestWithSeed(t *testing.T) {
	orig := smallArm(nil)
	seeded := withSeed(orig, 77)
	if got := seeded.Apps[0].Workload.Seed; got != 77 {
		t.Errorf("seeded workload seed = %d, want 77", got)
	}
	if got := orig.Apps[0].Workload.Seed; got != 1 {
		t.Errorf("withSeed mutated the original spec (seed %d)", got)
	}
	if !strings.HasSuffix(seeded.Name, "/seed77") {
		t.Errorf("seeded name %q lacks the seed suffix", seeded.Name)
	}
}

func TestMetricNamesResolve(t *testing.T) {
	r := campaign.RunResult{SimMicros: 3, ModelMicros: 2, Events: 5}
	for _, name := range MetricNames() {
		get, err := metricExtractor(name)
		if err != nil {
			t.Errorf("metricExtractor(%q): %v", name, err)
			continue
		}
		get(&r) // every metric is defined on every row
	}
	if get, err := metricExtractor("sim_us"); err != nil || get(&r) != 3 {
		t.Errorf("metricExtractor(sim_us): %v", err)
	}
	if _, err := metricExtractor("nope"); err == nil {
		t.Error("unknown metric did not error")
	}
}

func TestVerdict(t *testing.T) {
	eff := func(min, med, max float64) stats.Effect { return stats.Effect{N: 3, Min: min, Median: med, Max: max} }
	cases := []struct {
		name      string
		e         stats.Effect
		direction string
		min       float64
		want      string
	}{
		{"confirmed increase", eff(0.05, 0.10, 0.20), Increase, 0.01, Confirmed},
		{"confirmed decrease", eff(-0.20, -0.10, -0.05), Decrease, 0.01, Confirmed},
		{"refuted (wrong direction)", eff(0.05, 0.10, 0.20), Decrease, 0.01, Refuted},
		{"inconclusive mixed signs", eff(-0.05, 0.10, 0.20), Increase, 0.01, Inconclusive},
		{"inconclusive below threshold", eff(0.001, 0.002, 0.003), Increase, 0.01, Inconclusive},
		{"inconclusive empty", stats.Effect{}, Increase, 0.01, Inconclusive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := verdict(tc.e, tc.direction, tc.min); got != tc.want {
				t.Errorf("verdict = %q, want %q", got, tc.want)
			}
		})
	}
}
