// Application and platform design experiments of paper Section 5:
// Htile tuning (Figure 5), platform sizing (Figure 6), partition-size
// throughput and the R/X, R²/X metrics (Figures 7–9), cores-per-node
// design (Figure 10), bottleneck breakdown (Figure 11), and the pipelined
// energy-group sweep re-design (Figure 12). Also the Table 4 baseline
// model comparison and the Figure 2 sweep-structure summary.
package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/wavefront"
)

func init() {
	Register("fig5", func(quick bool) (Table, error) { return Fig5() })
	Register("fig6", func(quick bool) (Table, error) { return Fig6(quick) })
	Register("fig7", func(quick bool) (Table, error) { return Fig7() })
	Register("fig8", func(quick bool) (Table, error) { return Fig8() })
	Register("fig9", func(quick bool) (Table, error) { return Fig9() })
	Register("fig10", func(quick bool) (Table, error) { return Fig10() })
	Register("fig11", func(quick bool) (Table, error) { return Fig11() })
	Register("fig12", func(quick bool) (Table, error) { return Fig12() })
	Register("table4", func(quick bool) (Table, error) { return Table4() })
	Register("sweeps", func(quick bool) (Table, error) { return SweepStructures() })
}

// Production workload definitions (paper Section 5).
var (
	// Sweep3DBillion is the 10⁹-cell LANL problem.
	Sweep3DBillion = grid.NewGrid(1000, 1000, 1000)
	// Sweep3D20M is the 20-million-cell LANL problem.
	Sweep3D20M = grid.NewGrid(272, 272, 272)
	// Chimaera240 is AWE's largest cubic benchmark problem.
	Chimaera240 = grid.Cube(240)
)

// TimeSteps and energy-group scaling for production projections.
const (
	ProductionTimeSteps = 1e4
	EnergyGroups        = apps.Sweep3DEnergyGrps
)

// perStepMicros returns the execution time of one time step in µs for the
// benchmark on p cores of the machine (iterations per step × per-iteration
// time), optionally scaled by energy groups.
func perStepMicros(bm apps.Benchmark, mach machine.Machine, p int, groups float64) (float64, error) {
	model := core.New(bm.App, mach)
	rep, err := model.EvaluateP(p)
	if err != nil {
		return 0, err
	}
	return rep.Total * groups, nil
}

// Fig5 sweeps the tile height Htile for Chimaera 240³ and Sweep3D 20M on
// 4K and 16K processors (execution time per time step, seconds).
func Fig5() (Table, error) {
	mach := machine.XT4()
	t := Table{
		ID:    "fig5",
		Title: "Execution time vs Htile (Figure 5; per time step, seconds)",
		Columns: []string{"Htile", "Chimaera240 P=4K", "Chimaera240 P=16K",
			"Sweep3D20M P=4K", "Sweep3D20M P=16K"},
	}
	type curve struct {
		bm func(h int) apps.Benchmark
		p  int
	}
	curves := []curve{
		{func(h int) apps.Benchmark { return apps.Chimaera(Chimaera240, h) }, 4096},
		{func(h int) apps.Benchmark { return apps.Chimaera(Chimaera240, h) }, 16384},
		{func(h int) apps.Benchmark { return apps.Sweep3D(Sweep3D20M, h).WithIterations(480) }, 4096},
		{func(h int) apps.Benchmark { return apps.Sweep3D(Sweep3D20M, h).WithIterations(480) }, 16384},
	}
	best := make([]int, len(curves))
	bestT := make([]float64, len(curves))
	for i := range bestT {
		bestT[i] = -1
	}
	for h := 1; h <= 10; h++ {
		row := []string{fmt.Sprintf("%d", h)}
		for ci, c := range curves {
			us, err := perStepMicros(c.bm(h), mach, c.p, 1)
			if err != nil {
				return Table{}, err
			}
			if bestT[ci] < 0 || us < bestT[ci] {
				bestT[ci], best[ci] = us, h
			}
			row = append(row, f(us/1e6))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"minima at Htile = %d, %d, %d, %d (paper: 2–5 on the XT4, vs 5–10 on the higher-latency SP/2)",
		best[0], best[1], best[2], best[3]))
	return t, nil
}

// Fig6Point is one point of the platform sizing curve.
type Fig6Point struct {
	P             int
	PredictedDays float64
	MeasuredDays  float64 // <0 when not simulated
}

// Fig6Data computes the Sweep3D 10⁹ scaling curve (10⁴ time steps, 30
// energy groups, Htile = 2), with simulator "measurements" of one
// iteration on the dual-core XT4 at the processor counts in simPs.
func Fig6Data(ps, simPs []int) ([]Fig6Point, error) {
	// One description of the machine for both columns.
	xt4 := config.MachineSpec{Preset: "xt4", CoresPerNode: 2}
	mach, err := xt4.Machine()
	if err != nil {
		return nil, err
	}
	bm := apps.Sweep3D(Sweep3DBillion, 2)
	simSet := map[int]bool{}
	for _, p := range simPs {
		simSet[p] = true
	}
	out := make([]Fig6Point, 0, len(ps))
	for _, p := range ps {
		us, err := perStepMicros(bm, mach, p, EnergyGroups)
		if err != nil {
			return nil, err
		}
		pt := Fig6Point{P: p, PredictedDays: us * ProductionTimeSteps / 1e6 / 86400, MeasuredDays: -1}
		if simSet[p] {
			sims, err := simulate(sweep3DSpec("fig6", Sweep3DBillion, []int{p}, xt4))
			if err != nil {
				return nil, err
			}
			perStep := sims[0].Result.Time * float64(bm.App.Iterations) * EnergyGroups
			pt.MeasuredDays = perStep * ProductionTimeSteps / 1e6 / 86400
		}
		out = append(out, pt)
	}
	return out, nil
}

// Fig6 renders the execution-time-vs-system-size study.
func Fig6(quick bool) (Table, error) {
	ps := []int{1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}
	simPs := []int{1024}
	if quick {
		simPs = nil
	}
	pts, err := Fig6Data(ps, simPs)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "fig6",
		Title:   "Sweep3D 10⁹ cells, 10⁴ time steps, 30 energy groups, Htile=2 (Figure 6)",
		Columns: []string{"P", "predicted(days)", "simulated(days)"},
	}
	for _, p := range pts {
		meas := "-"
		if p.MeasuredDays >= 0 {
			meas = f(p.MeasuredDays)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", p.P), f(p.PredictedDays), meas})
	}
	t.Notes = append(t.Notes, "one simulated iteration scaled to the full production run (paper scales measured iterations the same way)")
	return t, nil
}

// sweep3DBillionEval returns an Evaluator for the per-10⁴-step runtime of
// the Sweep3D 10⁹ problem.
func sweep3DBillionEval(mach machine.Machine) metrics.Evaluator {
	bm := apps.Sweep3D(Sweep3DBillion, 2)
	return func(p int) (float64, error) {
		us, err := perStepMicros(bm, mach, p, EnergyGroups)
		if err != nil {
			return 0, err
		}
		return us * ProductionTimeSteps, nil
	}
}

// Fig7 tabulates time steps solved per month per problem when partitioning
// the available processors among 1–8 (Sweep3D) or 1–16 (Chimaera) parallel
// simulations.
func Fig7() (Table, error) {
	mach := machine.XT4()
	t := Table{
		ID:      "fig7",
		Title:   "Throughput vs partition size (Figure 7; time steps/problem/month)",
		Columns: []string{"problem", "Pavail", "jobs=1", "jobs=2", "jobs=4", "jobs=8", "jobs=16"},
	}
	addRows := func(name string, pavails, jobs []int, perStep func(p int) (float64, error)) error {
		for _, pav := range pavails {
			row := []string{name, fmt.Sprintf("%d", pav)}
			for _, j := range jobs {
				us, err := perStep(pav / j)
				if err != nil {
					return err
				}
				row = append(row, f(metrics.TimeStepsPerMonth(us)))
			}
			for len(row) < len(t.Columns) {
				row = append(row, "-")
			}
			t.Rows = append(t.Rows, row)
		}
		return nil
	}
	s3d := apps.Sweep3D(Sweep3DBillion, 2)
	if err := addRows("Sweep3D 1e9", []int{32768, 65536, 131072}, []int{1, 2, 4, 8},
		func(p int) (float64, error) { return perStepMicros(s3d, mach, p, EnergyGroups) }); err != nil {
		return Table{}, err
	}
	chi := apps.Chimaera(Chimaera240, 2)
	if err := addRows("Chimaera 240³", []int{16384, 32768}, []int{1, 2, 4, 8, 16},
		func(p int) (float64, error) { return perStepMicros(chi, mach, p, 1) }); err != nil {
		return Table{}, err
	}
	return t, nil
}

// Fig8 plots R/X and R²/X against partition size for the Sweep3D 10⁹
// problem on 128K cores.
func Fig8() (Table, error) {
	eval := sweep3DBillionEval(machine.XT4())
	points, err := metrics.Partitions(131072, []int{32, 16, 8, 4, 2, 1}, eval)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "fig8",
		Title:   "Optimizing partition size, Sweep3D 10⁹ on 128K cores (Figure 8)",
		Columns: []string{"partition P", "jobs", "R(days)", "R/X (norm)", "R²/X (norm)"},
	}
	minRX, minR2X := points[0].RoverX, points[0].R2overX
	for _, p := range points[1:] {
		if p.RoverX < minRX {
			minRX = p.RoverX
		}
		if p.R2overX < minR2X {
			minR2X = p.R2overX
		}
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Partition), fmt.Sprintf("%d", p.Jobs),
			f(p.R / 1e6 / 86400), f(p.RoverX / minRX), f(p.R2overX / minR2X),
		})
	}
	rx, _ := metrics.Optimal(points, metrics.MinRoverX)
	r2x, _ := metrics.Optimal(points, metrics.MinR2overX)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"min R/X at partition %d (paper: 16K); min R²/X at partition %d (paper: 64K)",
		rx.Partition, r2x.Partition))
	return t, nil
}

// Fig9 reports the optimal number of parallel simulations on each platform
// size under both criteria.
func Fig9() (Table, error) {
	eval := sweep3DBillionEval(machine.XT4())
	t := Table{
		ID:      "fig9",
		Title:   "Optimized number of parallel simulations, Sweep3D 10⁹ (Figure 9)",
		Columns: []string{"Pavail", "jobs @ min R/X", "jobs @ min R²/X"},
	}
	for _, pav := range []int{16384, 32768, 65536, 131072} {
		a, err := metrics.OptimalJobs(pav, 4096, metrics.MinRoverX, eval)
		if err != nil {
			return Table{}, err
		}
		b, err := metrics.OptimalJobs(pav, 4096, metrics.MinR2overX, eval)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pav), fmt.Sprintf("%d", a.Jobs), fmt.Sprintf("%d", b.Jobs),
		})
	}
	return t, nil
}

// Fig10 evaluates the multi-core node design space: execution time of the
// Sweep3D 10⁹ production run versus node count for 1–16 cores per node,
// plus the 16-core node with four independent bus groups (Section 5.3).
func Fig10() (Table, error) {
	bm := apps.Sweep3D(Sweep3DBillion, 2)
	t := Table{
		ID:      "fig10",
		Title:   "Execution time on multi-core nodes, Sweep3D 10⁹, 10⁴ steps (Figure 10; days)",
		Columns: []string{"nodes", "1 core", "2 cores", "4 cores", "8 cores", "16 cores", "16 cores/4 buses"},
	}
	for _, nodes := range []int{8192, 16384, 32768, 65536, 131072} {
		row := []string{fmt.Sprintf("%d", nodes)}
		for _, cores := range []int{1, 2, 4, 8, 16} {
			mach, err := machine.XT4MultiCore(cores)
			if err != nil {
				return Table{}, err
			}
			us, err := perStepMicros(bm, mach, nodes*cores, EnergyGroups)
			if err != nil {
				return Table{}, err
			}
			row = append(row, f(us*ProductionTimeSteps/1e6/86400))
		}
		mach, err := machine.XT4MultiCoreGrouped(16, 4)
		if err != nil {
			return Table{}, err
		}
		us, err := perStepMicros(bm, mach, nodes*16, EnergyGroups)
		if err != nil {
			return Table{}, err
		}
		row = append(row, f(us*ProductionTimeSteps/1e6/86400))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"beyond 4 cores on one shared bus, contention erodes the benefit (paper Section 5.3); 4-core bus groups recover it")
	return t, nil
}

// Fig11Point is one cost-breakdown point.
type Fig11Point struct {
	P                             int
	TotalDays, CompDays, CommDays float64
}

// Fig11Data computes the Chimaera cost breakdown across processor counts.
func Fig11Data(ps []int) ([]Fig11Point, error) {
	mach := machine.XT4()
	bm := apps.Chimaera(Chimaera240, 2)
	out := make([]Fig11Point, 0, len(ps))
	for _, p := range ps {
		model := core.New(bm.App, mach)
		rep, err := model.EvaluateP(p)
		if err != nil {
			return nil, err
		}
		scale := ProductionTimeSteps / 1e6 / 86400
		out = append(out, Fig11Point{
			P:         p,
			TotalDays: rep.Total * scale,
			CompDays:  rep.ComputePerIter * float64(bm.App.Iterations) * scale,
			CommDays:  rep.CommPerIter * float64(bm.App.Iterations) * scale,
		})
	}
	return out, nil
}

// Fig11 renders the computation/communication breakdown.
func Fig11() (Table, error) {
	pts, err := Fig11Data([]int{1024, 4096, 8192, 16384, 32768})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "fig11",
		Title:   "Cost breakdown, Chimaera 240³, 10⁴ time steps (Figure 11; days)",
		Columns: []string{"P", "total", "computation", "communication", "comm share"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.P), f(p.TotalDays), f(p.CompDays), f(p.CommDays),
			fmt.Sprintf("%.1f%%", p.CommDays/p.TotalDays*100),
		})
	}
	t.Notes = append(t.Notes,
		"the crossover where communication dominates marks the point of strongly diminishing returns (Section 5.4)")
	return t, nil
}

// Fig12 evaluates the pipelined energy-group sweep re-design on a fixed
// per-processor problem of 4×4×1000 cells with 30 energy groups: the
// sequential design solves each group to convergence separately (30 × the
// per-iteration fills), while the pipelined design performs all 240 sweeps
// per iteration with nfull = 2 and ndiag = 2 (Section 5.5).
func Fig12() (Table, error) {
	mach := machine.XT4()
	t := Table{
		ID:      "fig12",
		Title:   "Pipeline fill re-design, Sweep3D 4×4×1000 cells/processor, 30 groups, 10⁴ steps (Figure 12; days)",
		Columns: []string{"P", "sequential total", "pipelined total", "sequential fill time", "fill share"},
	}
	for _, p := range []int{1024, 4096, 16384, 65536} {
		n, m := squareFactors(p)
		g := grid.NewGrid(4*n, 4*m, 1000)
		seqBM := apps.Sweep3D(g, 2)
		pipBM := seqBM
		pipBM.App = pipBM.App.WithSweepStructure(8*EnergyGroups, 2, 2)
		decP := grid.MustDecompose(g, n, m)

		seqRep, err := core.New(seqBM.App, mach).Evaluate(decP)
		if err != nil {
			return Table{}, err
		}
		pipRep, err := core.New(pipBM.App, mach).Evaluate(decP)
		if err != nil {
			return Table{}, err
		}
		scale := ProductionTimeSteps / 1e6 / 86400
		seqTotal := seqRep.Total * EnergyGroups * scale
		pipTotal := pipRep.Total * scale
		seqFill := seqRep.FillTimePerIter * float64(seqBM.App.Iterations) * EnergyGroups * scale
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p), f(seqTotal), f(pipTotal), f(seqFill),
			fmt.Sprintf("%.1f%%", seqFill/seqTotal*100),
		})
	}
	t.Notes = append(t.Notes,
		"pipelining the energy groups eliminates nearly all fill overhead if convergence needs no extra iterations (Section 5.5)")
	return t, nil
}

func squareFactors(p int) (n, m int) {
	m = 1
	for c := 1; c*c <= p; c++ {
		if p%c == 0 {
			m = c
		}
	}
	return p / m, m
}

// Table4 compares the previous Sweep3D-specific LogGP model (Table 4) with
// the plug-and-play model on identical configurations, on both the SP/2
// parameters it was built for and the XT4.
func Table4() (Table, error) {
	t := Table{
		ID:      "table4",
		Title:   "Baseline PPoPP'99 Sweep3D model (Table 4) vs plug-and-play model (per iteration, ms)",
		Columns: []string{"platform", "P", "baseline(ms)", "plug-and-play(ms)", "rel.diff", "sync terms(ms)"},
	}
	g := grid.Cube(96)
	for _, tc := range []struct {
		mach machine.Machine
		sync bool
	}{
		{machine.SP2(), true},
		{machine.XT4SingleCore(), false},
	} {
		for _, p := range []int{16, 64, 256} {
			dec, err := grid.SquareDecomposition(g, p)
			if err != nil {
				return Table{}, err
			}
			// Compare both models without synchronization terms — the
			// re-usable model omits them by design (Section 4.2) — and
			// report the baseline's per-block sync contribution separately.
			cfg := baseline.Sweep3DConfig{
				Grid: g, N: dec.N, M: dec.M,
				WgAngle: apps.GrindTime,
				MK:      4, MMI: 3, MMO: 6,
				Params: tc.mach.Params,
			}
			base, err := baseline.Evaluate(cfg)
			if err != nil {
				return Table{}, err
			}
			withSync := cfg
			withSync.SyncTerms = tc.sync
			baseSync, err := baseline.Evaluate(withSync)
			if err != nil {
				return Table{}, err
			}
			bm := apps.Sweep3D(g, cfg.MK*cfg.MMI/cfg.MMO).WithIterations(1)
			rep, err := core.New(bm.App, tc.mach).Evaluate(dec)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				tc.mach.Params.Name, fmt.Sprintf("%d", p),
				f(base.Total / 1e3), f(rep.TimePerIteration / 1e3),
				pct(stats.SignedRelErr(rep.TimePerIteration, base.Total)),
				f((baseSync.Total - base.Total) / 1e3),
			})
		}
	}
	t.Notes = append(t.Notes,
		"synchronization terms are significant on the SP/2 but negligible on the XT4 (paper Sections 2.3, 4.2)")
	return t, nil
}

// SweepStructures summarises the Figure 2 sweep corner sequences and the
// derived Table 3 structure parameters.
func SweepStructures() (Table, error) {
	t := Table{
		ID:      "sweeps",
		Title:   "Sweep structures and derived parameters (Figure 2, Table 3)",
		Columns: []string{"app", "corners", "nsweeps", "nfull", "ndiag"},
	}
	for _, tc := range []struct {
		name    string
		corners []grid.Corner
	}{
		{"LU", wavefront.LUCorners()},
		{"Sweep3D", wavefront.Sweep3DCorners()},
		{"Chimaera", wavefront.ChimaeraCorners()},
	} {
		ns, nf, nd := wavefront.Classify(tc.corners)
		seq := ""
		for i, c := range tc.corners {
			if i > 0 {
				seq += ","
			}
			seq += c.String()
		}
		t.Rows = append(t.Rows, []string{tc.name, seq,
			fmt.Sprintf("%d", ns), fmt.Sprintf("%d", nf), fmt.Sprintf("%d", nd)})
	}
	t.Notes = append(t.Notes, "Table 3 expects LU: 2/2/0, Sweep3D: 8/2/2, Chimaera: 8/4/2")
	return t, nil
}
