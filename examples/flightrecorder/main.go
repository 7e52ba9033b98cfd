// Flightrecorder: walk through the observability layer of internal/obs —
// attach one recorder to a 64-rank Sweep3D simulation on a torus-connected
// dual-core XT4, then render the recording three ways: a Chrome trace-event
// timeline for ui.perfetto.dev, a sampled CSV time series, and duration
// histograms whose percentiles expose the tail contention that mean wait
// columns hide. Everything printed and written here is deterministic: the
// same bytes for any shard count (window tracks aside) on every machine.
package main

import (
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/topo"
)

func main() {
	// One Sweep3D iteration: 32³ cells over an 8×8 rank grid (64 ranks on
	// 32 dual-core nodes), inter-node traffic routed over a 2D torus.
	g := grid.Cube(32)
	bm := apps.Sweep3D(g, 2)
	dec := grid.MustDecompose(g, 8, 8)
	mach := machine.XT4()
	sched, err := bm.Schedule(dec, 1)
	check(err)
	tp := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	check(tp.AttachInterconnect(topo.Spec{Kind: topo.Torus2D}))

	// The recorder's feature flags choose what is collected; all of them
	// off (the default) collects nothing, and a nil recorder costs the
	// simulation nothing at all. An obs.Recorder does not force the
	// simulation serial — a sharded run records the same bytes, so Shards
	// and Obs compose freely in one Options value.
	rec := &obs.Recorder{Spans: true, Messages: true, Links: true, Windows: true, Hist: true}
	sim, err := simmpi.NewWithOptions(tp, simmpi.Options{
		Shards: 4, // conservative-parallel, bit-identical to serial
		Obs:    rec,
	})
	check(err)
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	res, err := sim.Run()
	check(err)
	fmt.Printf("simulated %d ranks: %.1fµs makespan, %d events, %d messages\n\n",
		dec.P(), res.Time, res.Events, res.Sends)

	// 1. Timeline: one track per rank, per active link and per shard.
	//    Load the file in https://ui.perfetto.dev (or chrome://tracing);
	//    clicking a send span shows its peer and byte count, a link span
	//    its queueing delay, a shard window its event count and heap depth.
	f, err := os.Create("flight_trace.json")
	check(err)
	check(obs.WriteTimeline(f, rec))
	check(f.Close())
	fmt.Println("wrote flight_trace.json — open in https://ui.perfetto.dev")

	// 2. Time series: the simulation's state sampled every 100µs of
	//    simulated time — how many ranks compute vs. block, messages in
	//    flight, link busy time per interval. Plot ranks_compute against
	//    t_us to watch the wavefront pipeline fill and drain.
	f, err = os.Create("flight_samples.csv")
	check(err)
	check(obs.WriteSamples(f, rec, 100))
	check(f.Close())
	fmt.Println("wrote flight_samples.csv — e.g. ranks_compute over t_us")

	// 3. Histograms: log2-bucketed durations, percentiles computed from
	//    integer bucket counts so they are exact and merge-order free.
	//    recv_wait p99 ≫ p50 is the wavefront signature: corner ranks
	//    start immediately, far ranks wait for the whole sweep to arrive.
	fmt.Printf("\nduration histograms (µs):\n")
	res.Hists.Write(os.Stdout)
	h := &res.Hists.RecvWait
	fmt.Printf("\nreceive wait: p50 %.3gµs vs p99 %.3gµs — the pipeline-fill tail\n",
		h.Quantile(0.5), h.Quantile(0.99))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flightrecorder:", err)
		os.Exit(1)
	}
}
