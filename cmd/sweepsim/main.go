// Command sweepsim executes a wavefront benchmark on the discrete-event
// MPI simulator and compares the result with the plug-and-play model
// prediction — the reproduction's analogue of running the real code on the
// Cray XT4 and validating the model against it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/replay"
	"repro/internal/simmpi"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweepsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("sweepsim", flag.ContinueOnError)
	app := fs.String("app", "sweep3d", "benchmark: lu, sweep3d, chimaera")
	cube := fs.Int("cube", 64, "problem size (cube edge, cells)")
	p := fs.Int("p", 64, "total processor (core) count")
	htile := fs.Int("htile", 0, "tile height (0: the preset's own — LU 1, Sweep3D 2, Chimaera 1)")
	iters := fs.Int("iters", 2, "iterations to simulate")
	cores := fs.Int("cores", 2, "cores per node")
	wlJSON := fs.String("workload", "", `per-tile workload spec as inline JSON, e.g. '{"dist":"lognormal","sigma":0.4,"seed":7}' (see internal/workload)`)
	recordTrace := fs.String("record-trace", "", "record the run's op trace to this JSONL file (replay with cmd/replay)")
	shards := cliflags.RegisterShards(fs, 1)
	obsFlags := cliflags.RegisterObs(fs)
	pf := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()

	if *cube <= 0 {
		return fmt.Errorf("-cube %d: the grid edge must be positive", *cube)
	}
	if *iters <= 0 {
		return fmt.Errorf("-iters %d: invalid iteration count, want 1 or more", *iters)
	}
	g := config.GridSpec{Nx: *cube, Ny: *cube, Nz: *cube}
	ad := campaign.AppDim{Preset: *app, Grid: &g, Htile: *htile}
	if *wlJSON != "" {
		ad.Workload = new(config.WorkloadSpec)
		if err := config.DecodeStrict([]byte(*wlJSON), ad.Workload); err != nil {
			return fmt.Errorf("-workload: %w", err)
		}
	}
	// The machine is given as its config spec so a recorded trace header
	// describes exactly the hardware this run simulated.
	mspec := config.MachineSpec{Preset: "xt4", CoresPerNode: *cores}
	runs, err := campaign.Spec{
		Name:       "sweepsim",
		Iterations: *iters,
		Apps:       []campaign.AppDim{ad},
		Machines:   []campaign.MachineDim{{MachineSpec: mspec}},
		Ranks:      []int{*p},
	}.Expand()
	if err != nil {
		return err
	}
	run := runs[0]

	rec := obsFlags.Recorder()
	if obsFlags.Hist {
		if rec == nil {
			rec = &obs.Recorder{}
		}
		rec.Hist = true
	}
	if *recordTrace != "" {
		if rec == nil {
			rec = &obs.Recorder{}
		}
		rec.Ops = true
	}
	s, err := run.Simulate(nil, simmpi.Options{Shards: *shards, Obs: rec})
	if err != nil {
		return err
	}
	rep, res := s.Report, s.Result

	fmt.Fprintf(out, "app=%s grid=%s P=%d (%dx%d) cores/node=%d Htile=%d iterations=%d\n",
		run.App, run.Grid, run.P, rep.N, rep.M, s.Model.Machine.CoresPerNode, run.Htile, run.Iterations)
	fmt.Fprintf(out, "simulated:   %12.1f µs  (%.4f s)\n", res.Time, res.Time/1e6)
	fmt.Fprintf(out, "model:       %12.1f µs  (%.4f s)\n", rep.Total, rep.Total/1e6)
	fmt.Fprintf(out, "error:       %+11.2f%%\n", (rep.Total-res.Time)/res.Time*100)
	fmt.Fprintf(out, "breakdown:   fill=%.1fµs stack=%.1fµs non-wavefront=%.1fµs per iteration\n",
		rep.FillTimePerIter, float64(s.Model.App.NSweeps)*rep.TStack, rep.TNonWavefront)
	fmt.Fprintf(out, "model comm:  %.1f%% of iteration\n", rep.CommPerIter/rep.TimePerIteration*100)
	fmt.Fprintf(out, "simulator:   %d events, %d messages, %d bus waits (%.1fµs total wait)\n",
		res.Events, res.Sends, res.BusQueued, res.BusWait)
	if k, windows, stalls := s.Sim.ParallelStats(); k > 1 {
		fmt.Fprintf(out, "parallel:    %d shards, %d lookahead windows, %d barrier stalls\n",
			k, windows, stalls)
	}
	if *recordTrace != "" {
		hdr := replay.Header{
			App:      run.App,
			Workload: run.Workload,
			Machine:  mspec,
			Grid:     g,
			DecN:     rep.N,
			DecM:     rep.M,
		}.WithResult(res)
		if err := cliflags.WriteArtifact(*recordTrace, func(f *os.File) error {
			return replay.Write(f, hdr, rec)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace:       %s (replay with `replay -in %s`)\n", *recordTrace, *recordTrace)
	}
	if obsFlags.Hist && res.Hists != nil {
		fmt.Fprintln(out, "histograms (µs):")
		res.Hists.Write(out)
	}
	if err := obsFlags.WriteArtifacts(rec); err != nil {
		return err
	}
	if obsFlags.ChromeTrace != "" {
		fmt.Fprintf(out, "trace:       %s (open in https://ui.perfetto.dev)\n", obsFlags.ChromeTrace)
	}
	if obsFlags.SampleEvery > 0 {
		fmt.Fprintf(out, "samples:     %s (every %gµs)\n", obsFlags.SampleOut, obsFlags.SampleEvery)
	}
	return nil
}
