// Validation experiments: the plug-and-play model against the
// discrete-event simulator for LU, Sweep3D and Chimaera, mirroring the
// paper's validation against the Cray XT4 (Section 4: <5% error for LU and
// <10% for the particle transport benchmarks in high-performance
// configurations).
package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/stats"
)

func init() {
	Register("validate", func(quick bool) (Table, error) { return Validate(quick) })
}

// ValidationPoint is one model-vs-simulator comparison.
type ValidationPoint struct {
	App       string
	P         int
	Model     float64 // µs
	Simulated float64 // µs
	RelErr    float64 // signed, (model − sim)/sim
}

// SimulateBenchmark runs iters iterations of the benchmark on the
// discrete-event simulator and returns the virtual execution time in µs.
// The machine's interconnect spec, if any, is honoured: off-node traffic
// then routes over contended torus or fat-tree links.
func SimulateBenchmark(bm apps.Benchmark, mach machine.Machine, dec grid.Decomposition, iters int) (simmpi.Result, error) {
	sched, err := bm.WithIterations(iters).Schedule(dec, iters)
	if err != nil {
		return simmpi.Result{}, err
	}
	topo, err := simnet.NewMachineTopology(mach, dec)
	if err != nil {
		return simmpi.Result{}, err
	}
	sim := simmpi.New(topo)
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	return sim.Run()
}

// CompareOne evaluates model and simulator for iters iterations of a
// benchmark at one processor count.
func CompareOne(bm apps.Benchmark, mach machine.Machine, p, iters int) (ValidationPoint, error) {
	dec, err := grid.SquareDecomposition(bm.App.Grid, p)
	if err != nil {
		return ValidationPoint{}, err
	}
	model := core.New(bm.WithIterations(iters).App, mach)
	rep, err := model.Evaluate(dec)
	if err != nil {
		return ValidationPoint{}, err
	}
	res, err := SimulateBenchmark(bm, mach, dec, iters)
	if err != nil {
		return ValidationPoint{}, err
	}
	return ValidationPoint{
		App:       bm.App.Name,
		P:         p,
		Model:     rep.Total,
		Simulated: res.Time,
		RelErr:    stats.SignedRelErr(rep.Total, res.Time),
	}, nil
}

// ValidationConfig controls the validation sweep.
type ValidationConfig struct {
	Machine machine.Machine
	Ps      []int
	Grid    grid.Grid
	Iters   int
}

// DefaultValidationConfig returns a configuration sized for tests (quick)
// or for the full benchmark harness.
func DefaultValidationConfig(quick bool) ValidationConfig {
	if quick {
		return ValidationConfig{
			Machine: machine.XT4(),
			Ps:      []int{16, 64},
			Grid:    grid.Cube(48),
			Iters:   2,
		}
	}
	return ValidationConfig{
		Machine: machine.XT4(),
		Ps:      []int{64, 256, 1024},
		Grid:    grid.Cube(96),
		Iters:   2,
	}
}

// ValidationBenchmarks returns the three paper benchmarks configured on a
// common validation grid.
func ValidationBenchmarks(g grid.Grid) []apps.Benchmark {
	return []apps.Benchmark{
		apps.LU(g),
		apps.Sweep3D(g, 2),
		apps.Chimaera(g, 1),
	}
}

// ValidationSpec expresses the validation sweep as a declarative campaign:
// the three Table 3 benchmarks on the validation grid, the validation
// machine, and every processor count — the paper table as "just another
// campaign". The machine's LogGP parameters and node shape carry over; the
// core rectangle is re-derived from the core count (all validation machines
// use the paper's standard rectangles).
func ValidationSpec(cfg ValidationConfig) campaign.Spec {
	g := config.GridSpec{Nx: cfg.Grid.Nx, Ny: cfg.Grid.Ny, Nz: cfg.Grid.Nz}
	prm := cfg.Machine.Params
	return campaign.Spec{
		Name:       "validate",
		Iterations: cfg.Iters,
		Apps: []campaign.AppDim{
			{Preset: "lu", Grid: &g},
			{Preset: "sweep3d", Grid: &g, Htile: 2},
			{Preset: "chimaera", Grid: &g, Htile: 1},
		},
		Machines: []campaign.MachineDim{{
			MachineSpec: config.MachineSpec{
				Params:       &prm,
				CoresPerNode: cfg.Machine.CoresPerNode,
				BusGroups:    cfg.Machine.BusGroups,
			},
			Label: cfg.Machine.Name,
		}},
		Ranks: cfg.Ps,
	}
}

// ValidateData runs the full model-vs-simulator sweep through the campaign
// engine: the spec above expands to apps × processor counts in the same
// order the hand-written loop used, and the worker pool executes the runs
// in parallel with bit-identical results.
func ValidateData(cfg ValidationConfig) ([]ValidationPoint, error) {
	// The campaign machine spec derives the core rectangle from the core
	// count; refuse configs it cannot represent rather than silently
	// simulating a different placement.
	if cx, cy, err := machine.CoreRectangle(cfg.Machine.CoresPerNode); err != nil ||
		cx != cfg.Machine.Cx || cy != cfg.Machine.Cy {
		return nil, fmt.Errorf(
			"experiments: machine %q uses a non-standard %dx%d core rectangle (campaign specs derive %dx%d from %d cores); use CompareOne directly",
			cfg.Machine.Name, cfg.Machine.Cx, cfg.Machine.Cy, cx, cy, cfg.Machine.CoresPerNode)
	}
	runs, err := ValidationSpec(cfg).Expand()
	if err != nil {
		return nil, err
	}
	eng, err := campaign.NewEngine(campaign.Config{})
	if err != nil {
		return nil, err
	}
	results, err := eng.Execute(runs)
	if err != nil {
		return nil, err
	}
	out := make([]ValidationPoint, len(results))
	for i, r := range results {
		out[i] = ValidationPoint{
			App:       r.App,
			P:         r.P,
			Model:     r.ModelMicros,
			Simulated: r.SimMicros,
			RelErr:    r.RelErr,
		}
	}
	return out, nil
}

// Validate renders the validation table.
func Validate(quick bool) (Table, error) {
	cfg := DefaultValidationConfig(quick)
	pts, err := ValidateData(cfg)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID: "validate",
		Title: fmt.Sprintf("Plug-and-play model vs discrete-event simulator (%s, grid %v, %d iterations)",
			cfg.Machine.Name, cfg.Grid, cfg.Iters),
		Columns: []string{"app", "P", "model(µs)", "simulated(µs)", "rel.err"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			p.App, fmt.Sprintf("%d", p.P), f(p.Model), f(p.Simulated), pct(p.RelErr),
		})
	}
	t.Notes = append(t.Notes,
		"paper reports <5% (LU) and <10% (transport) for configurations where computation dominates; larger errors when per-node problem size is small")
	return t, nil
}
