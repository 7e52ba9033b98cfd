// Command benchjson runs the simulator's key performance benchmarks and
// writes the results as JSON so the performance trajectory can be tracked
// across pull requests (the CI workflow archives the file).
//
// Usage:
//
//	go run ./cmd/benchjson [-o BENCH_simmpi.json] [-benchtime N]
//
// The headline metric reproduces BenchmarkSimulatorEventRate: one full
// Sweep3D iteration (64³ grid, 16×16 decomposition, 256 ranks on the XT4
// model) per op, reporting discrete-event throughput and the per-event
// allocation rate. The same workload is repeated at 4 conservative-parallel
// shards (parallel_events_per_sec, barrier_stalls_per_window) so the serial
// and sharded trajectories are directly comparable. Batch throughput is
// tracked alongside them: the built-in example campaign (24 model+simulator
// runs across the sweep dimensions) executed on the full worker pool,
// reported in runs per second. A handful of experiment drivers are timed as
// end-to-end regression canaries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

type driverTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	Rows    int     `json:"rows"`
}

type report struct {
	Benchmark      string  `json:"benchmark"`
	Iterations     int     `json:"iterations"`
	NsPerOp        float64 `json:"ns_per_op"`
	EventsPerRun   uint64  `json:"events_per_run"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerOp     int64   `json:"bytes_per_op"`

	// The same workload with the observability recorder explicitly
	// detached (simmpi.Options{Obs: nil}): the nil-guarded hooks must keep
	// the disabled path as fast as having no hooks at all, and this metric
	// is what the benchgate holds to that claim.
	EventsPerSecObsDisabled float64 `json:"events_per_sec_obs_disabled"`

	// Campaign batch throughput on the built-in example sweep: how many
	// model+simulator runs per second the worker pool sustains.
	CampaignRuns       int     `json:"campaign_runs"`
	CampaignWorkers    int     `json:"campaign_workers"`
	CampaignSeconds    float64 `json:"campaign_seconds"`
	CampaignRunsPerSec float64 `json:"campaign_runs_per_sec"`

	// Conservative-parallel throughput: the event-rate workload run at
	// K=4 shards (simmpi.Options{Shards: 4}), so the two events/s columns are
	// directly comparable. barrier_stalls_per_window is deterministic —
	// the fraction of (shard, window) pairs that ran no events, the load-
	// imbalance diagnostic of the sharded scheduler.
	ParallelShards         int     `json:"parallel_shards"`
	ParallelEventsPerSec   float64 `json:"parallel_events_per_sec"`
	ParallelWindows        uint64  `json:"parallel_windows"`
	BarrierStallsPerWindow float64 `json:"barrier_stalls_per_window"`

	Drivers       []driverTiming `json:"drivers"`
	GeneratedUnix int64          `json:"generated_unix"`
}

// campaignRate executes the built-in example campaign repeatedly (after one
// warm-up) and reports batch throughput in runs per second.
func campaignRate(repeats int) (runs, workers int, seconds float64) {
	spec := campaign.Example()
	expanded, err := spec.Expand()
	if err != nil {
		panic(err)
	}
	workers = runtime.GOMAXPROCS(0)
	eng, err := campaign.NewEngine(campaign.Config{Workers: workers})
	if err != nil {
		panic(err)
	}
	if _, err := eng.Execute(expanded); err != nil { // warm-up
		panic(err)
	}
	start := time.Now()
	for i := 0; i < repeats; i++ {
		if _, err := eng.Execute(expanded); err != nil {
			panic(err)
		}
	}
	return len(expanded) * repeats, workers, time.Since(start).Seconds()
}

// eventRate runs the event-rate workload iters times (after one warm-up)
// and measures wall time and heap allocations per op. obsDisabled runs the
// workload with the observability recorder explicitly configured nil
// (simmpi.Options) — semantically identical to never attaching one, measured
// separately so the nil-guarded hook cost is tracked as its own metric.
func eventRate(iters int, obsDisabled bool) (nsPerOp float64, events uint64, allocsPerOp, bytesPerOp int64) {
	g := grid.Cube(64)
	bm := apps.Sweep3D(g, 2)
	mach := machine.XT4()
	dec := grid.MustDecompose(g, 16, 16)
	run := func() uint64 {
		sched, err := bm.Schedule(dec, 1)
		if err != nil {
			panic(err)
		}
		topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
		var sim *simmpi.Sim
		if obsDisabled {
			// Explicitly configure a nil recorder — semantically identical
			// to never attaching one — so the nil-guarded hook cost is
			// measured as its own metric.
			s, err := simmpi.NewWithOptions(topo, simmpi.Options{Obs: nil})
			if err != nil {
				panic(err)
			}
			sim = s
		} else {
			sim = simmpi.New(topo)
		}
		for r, p := range sched.Programs() {
			sim.SetProgram(r, p)
		}
		res, err := sim.Run()
		if err != nil {
			panic(err)
		}
		return res.Events
	}
	events = run() // warm-up
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		events = run()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	allocsPerOp = int64(after.Mallocs-before.Mallocs) / int64(iters)
	bytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / int64(iters)
	return nsPerOp, events, allocsPerOp, bytesPerOp
}

// parallelRate runs the event-rate workload at the given shard count
// (after one warm-up) and reports wall time per op plus the scheduler's
// window statistics.
func parallelRate(iters, shards int) (nsPerOp float64, events, windows, stalls uint64) {
	g := grid.Cube(64)
	bm := apps.Sweep3D(g, 2)
	mach := machine.XT4()
	dec := grid.MustDecompose(g, 16, 16)
	run := func() {
		sched, err := bm.Schedule(dec, 1)
		if err != nil {
			panic(err)
		}
		topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
		sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Shards: shards})
		if err != nil {
			panic(err)
		}
		for r, p := range sched.Programs() {
			sim.SetProgram(r, p)
		}
		res, err := sim.Run()
		if err != nil {
			panic(err)
		}
		events = res.Events
		_, windows, stalls = sim.ParallelStats()
	}
	run() // warm-up
	start := time.Now()
	for i := 0; i < iters; i++ {
		run()
	}
	nsPerOp = float64(time.Since(start).Nanoseconds()) / float64(iters)
	return nsPerOp, events, windows, stalls
}

func main() {
	out := flag.String("o", "BENCH_simmpi.json", "output path")
	iters := flag.Int("benchtime", 10, "iteration count for the event-rate benchmark")
	flag.Parse()

	nsPerOp, events, allocsPerOp, bytesPerOp := eventRate(*iters, false)
	obsNsPerOp, obsEvents, _, _ := eventRate(*iters, true)
	parNsPerOp, parEvents, parWindows, parStalls := parallelRate(*iters, 4)
	campRuns, campWorkers, campSeconds := campaignRate(*iters)

	rep := report{
		Benchmark:      "BenchmarkSimulatorEventRate",
		Iterations:     *iters,
		NsPerOp:        nsPerOp,
		EventsPerRun:   events,
		EventsPerSec:   float64(events) / (nsPerOp / 1e9),
		AllocsPerOp:    allocsPerOp,
		AllocsPerEvent: float64(allocsPerOp) / float64(events),
		BytesPerOp:     bytesPerOp,

		EventsPerSecObsDisabled: float64(obsEvents) / (obsNsPerOp / 1e9),

		CampaignRuns:       campRuns,
		CampaignWorkers:    campWorkers,
		CampaignSeconds:    campSeconds,
		CampaignRunsPerSec: float64(campRuns) / campSeconds,

		ParallelShards:         4,
		ParallelEventsPerSec:   float64(parEvents) / (parNsPerOp / 1e9),
		ParallelWindows:        parWindows,
		BarrierStallsPerWindow: float64(parStalls) / float64(parWindows),

		GeneratedUnix: time.Now().Unix(),
	}

	for _, id := range []string{"table4", "fig10", "fig11"} {
		start := time.Now()
		tab, err := experiments.Run(id, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: driver %s: %v\n", id, err)
			os.Exit(1)
		}
		rep.Drivers = append(rep.Drivers, driverTiming{
			ID:      id,
			Seconds: time.Since(start).Seconds(),
			Rows:    len(tab.Rows),
		})
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %.1fM events/s serial, %.1fM events/s at %d shards (%.3f stalls/window), %.4f allocs/event, %.0f campaign runs/s (%d workers), %d iterations\n",
		*out, rep.EventsPerSec/1e6, rep.ParallelEventsPerSec/1e6, rep.ParallelShards,
		rep.BarrierStallsPerWindow, rep.AllocsPerEvent, rep.CampaignRunsPerSec, rep.CampaignWorkers, rep.Iterations)
}
