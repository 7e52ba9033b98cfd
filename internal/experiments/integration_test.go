package experiments

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wavefront"
)

// simulateCorners runs one iteration of a Sweep3D-like workload with an
// arbitrary sweep corner sequence and returns the simulated time.
func simulateCorners(t *testing.T, g grid.Grid, dec grid.Decomposition,
	mach machine.Machine, corners []grid.Corner) float64 {
	t.Helper()
	bm := apps.Sweep3D(g, 2)
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched.Corners = corners
	topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	sim := simmpi.New(topo)
	for r := 0; r < dec.P(); r++ {
		sim.SetProgram(r, sched.Program(r))
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Time
}

// TestFig12EmergentValidation validates the Section 5.5 energy-group
// re-design end to end: the model's projection for the pipelined 8×G-sweep
// structure (nfull=2, ndiag=2, derived automatically from the corner
// sequence) must match the simulator's emergent behaviour.
func TestFig12EmergentValidation(t *testing.T) {
	const groups = 3
	g := grid.Cube(48)
	dec := grid.MustDecompose(g, 6, 6)
	mach := machine.XT4()
	base := apps.Sweep3D(g, 2).WithIterations(1)

	for _, tc := range []struct {
		name    string
		corners []grid.Corner
	}{
		{"sequential-groups", wavefront.SequentialGroupCorners(wavefront.Sweep3DCorners(), groups)},
		{"pipelined-groups", wavefront.PipelinedGroupCorners(wavefront.Sweep3DCorners(), groups)},
	} {
		app := base.App.FromCorners(tc.corners)
		rep, err := core.New(app, mach).Evaluate(dec)
		if err != nil {
			t.Fatal(err)
		}
		sim := simulateCorners(t, g, dec, mach, tc.corners)
		if re := stats.RelErr(rep.Total, sim); re > 0.12 {
			t.Errorf("%s: model %v vs sim %v (%.1f%%)", tc.name, rep.Total, sim, re*100)
		}
	}

	// The pipelined structure must save fill time in both model and sim.
	seqApp := base.App.FromCorners(wavefront.SequentialGroupCorners(wavefront.Sweep3DCorners(), groups))
	pipApp := base.App.FromCorners(wavefront.PipelinedGroupCorners(wavefront.Sweep3DCorners(), groups))
	if pipApp.NFull != 2 || pipApp.NDiag != 2 {
		t.Errorf("pipelined structure = nfull=%d ndiag=%d, want 2/2", pipApp.NFull, pipApp.NDiag)
	}
	if seqApp.NFull != 2*groups || seqApp.NDiag != 2*groups {
		t.Errorf("sequential structure = nfull=%d ndiag=%d", seqApp.NFull, seqApp.NDiag)
	}
	seqSim := simulateCorners(t, g, dec, mach, wavefront.SequentialGroupCorners(wavefront.Sweep3DCorners(), groups))
	pipSim := simulateCorners(t, g, dec, mach, wavefront.PipelinedGroupCorners(wavefront.Sweep3DCorners(), groups))
	if pipSim >= seqSim {
		t.Errorf("pipelined sim %v not faster than sequential %v", pipSim, seqSim)
	}
}

// TestMulticoreModelTracksSimulator exercises the Table 6 extensions: for
// 1, 2 and 4 cores per node, model error against the simulator stays
// within the paper's bounds on a compute-dominated configuration.
func TestMulticoreModelTracksSimulator(t *testing.T) {
	g := grid.Cube(64)
	for _, cores := range []int{1, 2, 4} {
		mach, err := machine.XT4MultiCore(cores)
		if err != nil {
			t.Fatal(err)
		}
		bm := apps.Sweep3D(g, 2)
		pt, err := CompareOne(bm, mach, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pt.RelErr) > 0.12 {
			t.Errorf("%d cores/node: model error %.2f%%", cores, pt.RelErr*100)
		}
	}
}

// TestTraceCommShareTracksModelBreakdown compares the model's Figure 11
// computation/communication split against the traced per-rank profile of
// the simulated execution.
func TestTraceCommShareTracksModelBreakdown(t *testing.T) {
	g := grid.Cube(48)
	bm := apps.Chimaera(g, 2).WithIterations(1)
	mach := machine.XT4()
	dec := grid.MustDecompose(g, 8, 8)
	rep, err := core.New(bm.App, mach).Evaluate(dec)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	rec := &obs.Recorder{Spans: true}
	sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(trace.Profile(rec.SpanList(), dec.P()))
	modelShare := rep.CommPerIter / rep.TimePerIteration
	// The traced mean comm share includes pipeline-fill waiting unevenly
	// across ranks; require agreement within a factor of 2.5 and the same
	// qualitative regime (both minority shares at this size).
	if sum.MeanCommShare <= 0 || sum.MeanCommShare > 0.5 {
		t.Errorf("traced comm share = %v", sum.MeanCommShare)
	}
	ratio := sum.MeanCommShare / modelShare
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("traced share %v vs model share %v (ratio %v)", sum.MeanCommShare, modelShare, ratio)
	}
}

// TestHtileModelMinimumAgreesWithSimulator verifies the Figure 5 use case
// end to end on a small configuration: the Htile minimising the model also
// (nearly) minimises the simulated time.
func TestHtileModelMinimumAgreesWithSimulator(t *testing.T) {
	g := grid.NewGrid(32, 32, 48)
	dec := grid.MustDecompose(g, 8, 8)
	mach := machine.XT4()
	hs := []int{1, 2, 4, 8, 16}
	bestModel, bestSim := -1, -1
	var bmT, bsT float64
	simTimes := map[int]float64{}
	for _, h := range hs {
		bm := apps.Sweep3D(g, h).WithIterations(1)
		rep, err := core.New(bm.App, mach).Evaluate(dec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateBenchmark(bm, mach, dec, 1)
		if err != nil {
			t.Fatal(err)
		}
		simTimes[h] = res.Time
		if bestModel < 0 || rep.Total < bmT {
			bestModel, bmT = h, rep.Total
		}
		if bestSim < 0 || res.Time < bsT {
			bestSim, bsT = h, res.Time
		}
	}
	// The model's chosen Htile must be within 5% of the simulator's true
	// optimum (the paper uses the model exactly this way).
	if loss := simTimes[bestModel]/bsT - 1; loss > 0.05 {
		t.Errorf("model picked Htile=%d (sim %.0f), true optimum Htile=%d (sim %.0f): %.1f%% loss",
			bestModel, simTimes[bestModel], bestSim, bsT, loss*100)
	}
}
