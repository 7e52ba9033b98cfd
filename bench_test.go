// Package repro_test is the benchmark harness: one benchmark per paper
// table and figure (regenerating its rows via the experiment drivers) plus
// ablations that switch off one model option or protocol feature at a time
// (the Ablation benchmarks below) and throughput benchmarks for
// the substrates (simulator event rate, real kernel grind time, model
// evaluation cost at full machine scale).
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fitting"
	"repro/internal/grid"
	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/sweep"
)

// benchDriver runs an experiment driver once per iteration.
func benchDriver(b *testing.B, id string, quick bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- Section 3: communication models ---

func BenchmarkTable2Fit(b *testing.B) { benchDriver(b, "table2", false) }

func BenchmarkFig3aOffNode(b *testing.B) { benchDriver(b, "fig3a", false) }

func BenchmarkFig3bOnChip(b *testing.B) { benchDriver(b, "fig3b", false) }

func BenchmarkAllReduce(b *testing.B) { benchDriver(b, "allreduce", true) }

// --- Section 4: model validation (model vs discrete-event simulator) ---

func benchValidate(b *testing.B, bm apps.Benchmark, p int) {
	b.Helper()
	mach := machine.XT4()
	var lastErr float64
	for i := 0; i < b.N; i++ {
		pt, err := experiments.CompareOne(bm, mach, p, 1)
		if err != nil {
			b.Fatal(err)
		}
		lastErr = pt.RelErr
	}
	b.ReportMetric(lastErr*100, "model-err-%")
}

func BenchmarkValidateLU(b *testing.B) { benchValidate(b, apps.LU(grid.Cube(96)), 256) }

func BenchmarkValidateSweep3D(b *testing.B) { benchValidate(b, apps.Sweep3D(grid.Cube(96), 2), 256) }

func BenchmarkValidateChimaera(b *testing.B) { benchValidate(b, apps.Chimaera(grid.Cube(96), 1), 256) }

// --- Section 5: application and platform design figures ---

func BenchmarkFig5Htile(b *testing.B) { benchDriver(b, "fig5", false) }

func BenchmarkFig6Sizing(b *testing.B) { benchDriver(b, "fig6", true) }

func BenchmarkFig7Throughput(b *testing.B) { benchDriver(b, "fig7", false) }

func BenchmarkFig8PartitionMetrics(b *testing.B) { benchDriver(b, "fig8", false) }

func BenchmarkFig9OptimalJobs(b *testing.B) { benchDriver(b, "fig9", false) }

func BenchmarkFig10Multicore(b *testing.B) { benchDriver(b, "fig10", false) }

func BenchmarkFig11Breakdown(b *testing.B) { benchDriver(b, "fig11", false) }

func BenchmarkFig12PipelineFill(b *testing.B) { benchDriver(b, "fig12", false) }

func BenchmarkTable4Baseline(b *testing.B) { benchDriver(b, "table4", false) }

// BenchmarkFig6Measured regenerates Figure 6's "measured" point by
// simulating a full iteration of Sweep3D 10⁹ cells on 1024 dual-core
// processors. This is the heaviest simulation in the harness.
func BenchmarkFig6Measured(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy simulation")
	}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig6Data([]int{1024}, []int{1024})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].MeasuredDays, "days")
	}
}

// --- Ablations: one model option or protocol feature at a time ---

// BenchmarkAblationSyncTerms quantifies the SP/2 handshake back-propagation
// terms the paper omits on the XT4 (Section 4.2).
func BenchmarkAblationSyncTerms(b *testing.B) {
	bm := apps.Sweep3D(grid.Cube(96), 2)
	dec := grid.MustDecompose(grid.Cube(96), 16, 16)
	var frac float64
	for i := 0; i < b.N; i++ {
		m := core.New(bm.App, machine.XT4())
		plain, err := m.Evaluate(dec)
		if err != nil {
			b.Fatal(err)
		}
		m.Opts.SyncTerms = true
		syn, err := m.Evaluate(dec)
		if err != nil {
			b.Fatal(err)
		}
		frac = (syn.Total - plain.Total) / plain.Total
	}
	b.ReportMetric(frac*100, "sync-cost-%")
}

// BenchmarkAblationContention quantifies the Table 6 shared-bus contention
// terms on the dual-core XT4.
func BenchmarkAblationContention(b *testing.B) {
	bm := apps.Sweep3D(grid.Cube(96), 2)
	dec := grid.MustDecompose(grid.Cube(96), 16, 16)
	var frac float64
	for i := 0; i < b.N; i++ {
		m := core.New(bm.App, machine.XT4())
		with, err := m.Evaluate(dec)
		if err != nil {
			b.Fatal(err)
		}
		m.Opts.NoContention = true
		without, err := m.Evaluate(dec)
		if err != nil {
			b.Fatal(err)
		}
		frac = (with.Total - without.Total) / without.Total
	}
	b.ReportMetric(frac*100, "contention-cost-%")
}

// BenchmarkAblationOnChip quantifies the benefit the on-chip communication
// path contributes to the pipeline fill on dual-core nodes.
func BenchmarkAblationOnChip(b *testing.B) {
	bm := apps.Sweep3D(grid.Cube(96), 2)
	dec := grid.MustDecompose(grid.Cube(96), 16, 16)
	var frac float64
	for i := 0; i < b.N; i++ {
		m := core.New(bm.App, machine.XT4())
		with, err := m.Evaluate(dec)
		if err != nil {
			b.Fatal(err)
		}
		m.Opts.ForceOffNode = true
		off, err := m.Evaluate(dec)
		if err != nil {
			b.Fatal(err)
		}
		frac = (off.FillTimePerIter - with.FillTimePerIter) / with.FillTimePerIter
	}
	b.ReportMetric(frac*100, "onchip-fill-benefit-%")
}

// BenchmarkAblationRendezvousCrossover sweeps message sizes around the
// 1 KB protocol threshold to expose the eager/rendezvous crossover.
func BenchmarkAblationRendezvousCrossover(b *testing.B) {
	mach := machine.XT4()
	var jump float64
	for i := 0; i < b.N; i++ {
		small, err := fitting.PingPong(mach, logp.OffNode, 1024, 4)
		if err != nil {
			b.Fatal(err)
		}
		large, err := fitting.PingPong(mach, logp.OffNode, 1025, 4)
		if err != nil {
			b.Fatal(err)
		}
		jump = large - small
	}
	b.ReportMetric(jump, "handshake-µs")
}

// --- Substrate throughput ---

// BenchmarkModelEvaluation128K measures the cost of one plug-and-play model
// evaluation at full machine scale (the StartP recurrence over 512×256
// processors).
func BenchmarkModelEvaluation128K(b *testing.B) {
	bm := apps.Sweep3D(grid.NewGrid(1000, 1000, 1000), 2)
	m := core.New(bm.App, machine.XT4())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.EvaluateP(131072); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignExample measures batch throughput of the campaign
// engine on the built-in example sweep (24 model+simulator runs over
// apps × machines × ranks × LogGP overrides), with each worker reusing one
// simulator across runs. The runs/s metric is what cmd/benchjson tracks.
func BenchmarkCampaignExample(b *testing.B) {
	runs, err := campaign.Example().Expand()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := campaign.NewEngine(campaign.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(runs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(runs)*b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkCampaignSerialReuse measures the per-run cost of the
// simulator-reuse path itself: one worker, back-to-back runs, no pool
// overhead.
func BenchmarkCampaignSerialReuse(b *testing.B) {
	runs, err := campaign.Example().Expand()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := campaign.NewEngine(campaign.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(runs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(runs)*b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkSimulatorEventRate measures discrete-event throughput on a
// Sweep3D iteration at P=256.
func BenchmarkSimulatorEventRate(b *testing.B) {
	g := grid.Cube(64)
	bm := apps.Sweep3D(g, 2)
	mach := machine.XT4()
	dec := grid.MustDecompose(g, 16, 16)
	var events uint64
	for i := 0; i < b.N; i++ {
		sched, err := bm.Schedule(dec, 1)
		if err != nil {
			b.Fatal(err)
		}
		topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
		sim := simmpi.New(topo)
		for r, p := range sched.Programs() {
			sim.SetProgram(r, p)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

// benchParallelEventRate measures aggregate discrete-event throughput of a
// huge Sweep3D run — 65,536 ranks on a 256×256 decomposition — at the given
// shard count. Setup (schedule expansion, topology and program installation)
// is excluded from the timer so the metric isolates Run itself; shards=1 is
// the serial reference the speedup is read against.
func benchParallelEventRate(b *testing.B, shards int) {
	g := grid.NewGrid(256, 256, 32)
	bm := apps.Sweep3D(g, 2)
	mach := machine.XT4()
	dec := grid.MustDecompose(g, 256, 256)
	var events, windows, stalls uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sched, err := bm.Schedule(dec, 1)
		if err != nil {
			b.Fatal(err)
		}
		topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
		sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		for r, p := range sched.Programs() {
			sim.SetProgram(r, p)
		}
		b.StartTimer()
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
		_, windows, stalls = sim.ParallelStats()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	if windows > 0 {
		b.ReportMetric(float64(stalls)/float64(windows), "stalls/window")
	}
}

// BenchmarkParallelEventRate is the conservative-parallel headline: the
// 64K-rank run of benchParallelEventRate across shard counts. The shards=4
// aggregate events/s is the number tracked by cmd/benchjson.
func BenchmarkParallelEventRate(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy simulation")
	}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			benchParallelEventRate(b, k)
		})
	}
}

// BenchmarkTransportKernel measures the real transport kernel's per-cell
// cost (the quantity the model takes as Wg).
func BenchmarkTransportKernel(b *testing.B) {
	g := grid.Cube(48)
	p := sweep.NewTransportProblem(g, 6)
	octs := sweep.Octants([]grid.Corner{grid.NW, grid.SE})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SolveSequential(octs)
	}
	cells := float64(g.Cells()) * float64(len(octs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell-visit")
}

// BenchmarkAllReduceSim measures the native collective at P=1024.
func BenchmarkAllReduceSim(b *testing.B) {
	mach := machine.XT4()
	for i := 0; i < b.N; i++ {
		topo := simnet.NewTopology(mach.Params, 1024, simnet.LinearPlacement(mach))
		sim := simmpi.New(topo)
		for r := 0; r < 1024; r++ {
			sim.SetProgram(r, simmpi.Ops(simmpi.AllReduce(8)))
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPingPongSim measures raw simulated message throughput.
func BenchmarkPingPongSim(b *testing.B) {
	mach := machine.XT4()
	for i := 0; i < b.N; i++ {
		if _, err := fitting.PingPong(mach, logp.OffNode, 4096, 100); err != nil {
			b.Fatal(err)
		}
	}
}
