// Command plugplay is the end-to-end plug-and-play workflow: read a JSON
// description of a wavefront application and a machine (the paper's
// Table 3 inputs), predict its runtime with the re-usable model across a
// processor sweep, and optionally validate a point against the
// discrete-event simulator with a per-rank activity profile.
//
// Usage:
//
//	plugplay -example > app.json     # write a template spec
//	plugplay -f app.json -p 256,1024,4096
//	plugplay -f app.json -p 256 -simulate -gantt
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/trace"
)

func main() {
	file := flag.String("f", "", "JSON run description (see -example)")
	plist := flag.String("p", "256,1024,4096", "comma-separated processor counts")
	simulate := flag.Bool("simulate", false, "validate the first processor count on the simulator")
	gantt := flag.Bool("gantt", false, "with -simulate: print a per-rank activity chart")
	example := flag.Bool("example", false, "print an example spec and exit")
	iters := flag.Int("simiters", 1, "iterations to simulate with -simulate")
	flag.Parse()

	if *example {
		out, err := config.Render(config.Example())
		check(err)
		fmt.Println(string(out))
		return
	}
	if *file == "" {
		fmt.Fprintln(os.Stderr, "plugplay: -f required (or -example)")
		os.Exit(2)
	}
	f, err := config.Load(*file)
	check(err)
	bm, err := f.App.Benchmark()
	check(err)
	mach, err := f.Machine.Machine()
	check(err)

	fmt.Printf("# %s on %s\n", bm.App.Name, mach)
	fmt.Printf("# nsweeps=%d nfull=%d ndiag=%d Htile=%d iterations=%d\n",
		bm.App.NSweeps, bm.App.NFull, bm.App.NDiag, bm.App.Htile, bm.App.Iterations)
	fmt.Printf("%10s %12s %14s %10s %10s\n", "P", "s/step", "fill(ms/iter)", "comm%", "speedup")

	var ps []int
	for _, s := range strings.Split(*plist, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		check(err)
		ps = append(ps, p)
	}
	var base float64
	for i, p := range ps {
		rep, err := core.New(bm.App, mach).EvaluateP(p)
		check(err)
		if i == 0 {
			base = rep.Total
		}
		fmt.Printf("%10d %12.3f %14.3f %9.1f%% %9.2fx\n",
			p, rep.TotalSeconds(), rep.FillTimePerIter/1e3,
			rep.CommPerIter/rep.TimePerIteration*100, base/rep.Total)
	}

	if !*simulate {
		return
	}
	p := ps[0]
	dec, err := grid.SquareDecomposition(bm.App.Grid, p)
	check(err)
	bmSim := bm.WithIterations(*iters)
	rep, err := core.New(bmSim.App, mach).Evaluate(dec)
	check(err)
	sched, err := bmSim.Schedule(dec, *iters)
	check(err)
	topo, err := simnet.NewMachineTopology(mach, dec)
	check(err)
	rec := &obs.Recorder{Spans: true}
	sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Obs: rec})
	check(err)
	for r, prog := range sched.Programs() {
		sim.SetProgram(r, prog)
	}
	res, err := sim.Run()
	check(err)

	fmt.Printf("\n# simulation at P=%d (%d iteration(s))\n", p, *iters)
	fmt.Printf("simulated: %.3f ms   model: %.3f ms   error: %+.2f%%\n",
		res.Time/1e3, rep.Total/1e3, (rep.Total-res.Time)/res.Time*100)
	spans := rec.SpanList()
	profiles := trace.Profile(spans, dec.P())
	sum := trace.Summarize(profiles)
	fmt.Printf("mean comm share: %.1f%% (model predicts %.1f%%); busiest rank %d; most comm-bound rank %d\n",
		sum.MeanCommShare*100, rep.CommPerIter/rep.TimePerIteration*100,
		sum.CriticalRank, sum.BoundRank)
	for _, pr := range trace.TopCommBound(profiles, 3) {
		fmt.Printf("  rank %4d: compute %.1fµs, send %.1fµs, recv %.1fµs, coll %.1fµs (%.1f%% comm)\n",
			pr.Rank, pr.Compute, pr.Send, pr.Recv, pr.Coll, pr.CommShare()*100)
	}
	if *gantt {
		fmt.Println()
		trace.Gantt(os.Stdout, spans, dec.P(), 100)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "plugplay:", err)
		os.Exit(1)
	}
}
