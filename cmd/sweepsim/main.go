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

	"repro/internal/apps"
	"repro/internal/cliflags"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/replay"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/workload"
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
	g := grid.Cube(*cube)
	bm, err := apps.Preset(*app, g, *htile)
	if err != nil {
		return err
	}
	bm = bm.WithIterations(*iters)

	var wl workload.Spec
	if *wlJSON != "" {
		if err := config.DecodeStrict([]byte(*wlJSON), &wl); err != nil {
			return fmt.Errorf("-workload: %w", err)
		}
		bm = bm.WithWorkload(wl)
	}

	// The machine is built from its config spec so a recorded trace
	// header describes exactly the hardware this run simulated.
	mspec := config.MachineSpec{Preset: "xt4", CoresPerNode: *cores}
	mach, err := mspec.Machine()
	if err != nil {
		return err
	}
	dec, err := grid.SquareDecomposition(g, *p)
	if err != nil {
		return err
	}

	rep, err := core.New(bm.App, mach).Evaluate(dec)
	if err != nil {
		return err
	}

	sched, err := bm.Schedule(dec, *iters)
	if err != nil {
		return err
	}
	topo, err := simnet.NewMachineTopology(mach, dec)
	if err != nil {
		return err
	}
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
	sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Shards: *shards, Obs: rec})
	if err != nil {
		return err
	}
	for r, prog := range sched.Programs() {
		sim.SetProgram(r, prog)
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "app=%s grid=%v P=%d (%dx%d) cores/node=%d Htile=%d iterations=%d\n",
		bm.App.Name, g, dec.P(), dec.N, dec.M, mach.CoresPerNode, bm.App.Htile, *iters)
	fmt.Fprintf(out, "simulated:   %12.1f µs  (%.4f s)\n", res.Time, res.Time/1e6)
	fmt.Fprintf(out, "model:       %12.1f µs  (%.4f s)\n", rep.Total, rep.Total/1e6)
	fmt.Fprintf(out, "error:       %+11.2f%%\n", (rep.Total-res.Time)/res.Time*100)
	fmt.Fprintf(out, "breakdown:   fill=%.1fµs stack=%.1fµs non-wavefront=%.1fµs per iteration\n",
		rep.FillTimePerIter, float64(bm.App.NSweeps)*rep.TStack, rep.TNonWavefront)
	fmt.Fprintf(out, "model comm:  %.1f%% of iteration\n", rep.CommPerIter/rep.TimePerIteration*100)
	fmt.Fprintf(out, "simulator:   %d events, %d messages, %d bus waits (%.1fµs total wait)\n",
		res.Events, res.Sends, res.BusQueued, res.BusWait)
	if k, windows, stalls := sim.ParallelStats(); k > 1 {
		fmt.Fprintf(out, "parallel:    %d shards, %d lookahead windows, %d barrier stalls\n",
			k, windows, stalls)
	}
	if *recordTrace != "" {
		hdr := replay.Header{
			App:      bm.App.Name,
			Workload: workloadLabel(bm),
			Machine:  mspec,
			Grid:     config.GridSpec{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz},
			DecN:     dec.N,
			DecM:     dec.M,
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

func workloadLabel(bm apps.Benchmark) string {
	if bm.Workload == nil {
		return ""
	}
	return bm.Workload.String()
}
