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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "plugplay:", err)
		os.Exit(1)
	}
}

// run is the command body; it returns its first error rather than
// exiting, so tests can drive it in process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("plugplay", flag.ContinueOnError)
	file := fs.String("f", "", "JSON run description (see -example)")
	plist := fs.String("p", "256,1024,4096", "comma-separated processor counts")
	simulate := fs.Bool("simulate", false, "validate the first processor count on the simulator")
	gantt := fs.Bool("gantt", false, "with -simulate: print a per-rank activity chart")
	example := fs.Bool("example", false, "print an example spec and exit")
	iters := fs.Int("simiters", 1, "iterations to simulate with -simulate")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *example {
		out, err := config.Render(config.Example())
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
		return nil
	}
	if *file == "" {
		fmt.Fprintln(fs.Output(), "plugplay: -f required (or -example)")
		return flag.ErrHelp
	}
	f, err := config.Load(*file)
	if err != nil {
		return err
	}
	bm, err := f.App.Benchmark()
	if err != nil {
		return err
	}
	mach, err := f.Machine.Machine()
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# %s on %s\n", bm.App.Name, mach)
	fmt.Fprintf(stdout, "# nsweeps=%d nfull=%d ndiag=%d Htile=%d iterations=%d\n",
		bm.App.NSweeps, bm.App.NFull, bm.App.NDiag, bm.App.Htile, bm.App.Iterations)
	fmt.Fprintf(stdout, "%10s %12s %14s %10s %10s\n", "P", "s/step", "fill(ms/iter)", "comm%", "speedup")

	var ps []int
	for _, s := range strings.Split(*plist, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		ps = append(ps, p)
	}
	var base float64
	for i, p := range ps {
		rep, err := core.New(bm.App, mach).EvaluateP(p)
		if err != nil {
			return err
		}
		if i == 0 {
			base = rep.Total
		}
		fmt.Fprintf(stdout, "%10d %12.3f %14.3f %9.1f%% %9.2fx\n",
			p, rep.TotalSeconds(), rep.FillTimePerIter/1e3,
			rep.CommPerIter/rep.TimePerIteration*100, base/rep.Total)
	}

	if !*simulate {
		return nil
	}
	if *iters <= 0 {
		return fmt.Errorf("-simiters %d: invalid iteration count, want 1 or more", *iters)
	}
	p := ps[0]
	runs, err := campaign.Spec{
		Name:       "plugplay",
		Iterations: *iters,
		Apps:       []campaign.AppDim{{Spec: &f.App}},
		Machines:   []campaign.MachineDim{{MachineSpec: f.Machine}},
		Ranks:      []int{p},
	}.Expand()
	if err != nil {
		return err
	}
	rec := &obs.Recorder{Spans: true}
	s, err := runs[0].Simulate(nil, simmpi.Options{Obs: rec})
	if err != nil {
		return err
	}
	rep, res := s.Report, s.Result

	fmt.Fprintf(stdout, "\n# simulation at P=%d (%d iteration(s))\n", p, *iters)
	fmt.Fprintf(stdout, "simulated: %.3f ms   model: %.3f ms   error: %+.2f%%\n",
		res.Time/1e3, rep.Total/1e3, (rep.Total-res.Time)/res.Time*100)
	spans := rec.SpanList()
	profiles := trace.Profile(spans, p)
	sum := trace.Summarize(profiles)
	fmt.Fprintf(stdout, "mean comm share: %.1f%% (model predicts %.1f%%); busiest rank %d; most comm-bound rank %d\n",
		sum.MeanCommShare*100, rep.CommPerIter/rep.TimePerIteration*100,
		sum.CriticalRank, sum.BoundRank)
	for _, pr := range trace.TopCommBound(profiles, 3) {
		fmt.Fprintf(stdout, "  rank %4d: compute %.1fµs, send %.1fµs, recv %.1fµs, coll %.1fµs (%.1f%% comm)\n",
			pr.Rank, pr.Compute, pr.Send, pr.Recv, pr.Coll, pr.CommShare()*100)
	}
	if *gantt {
		fmt.Fprintln(stdout)
		trace.Gantt(stdout, spans, p, 100)
	}
	return nil
}
