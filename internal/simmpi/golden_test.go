package simmpi_test

// Golden-equivalence tests: the typed-event, pooled
// simulator must produce bit-identical results to the original
// closure-based implementation. The constants below were recorded by
// running the seed implementation (commit e3c8b9b, container/heap closure
// events) on LU, Sweep3D and Chimaera over a 96³ grid at 256 ranks on the
// XT4 machine model; floats are hex literals so the comparison is exact to
// the last bit. Any change to event timing, scheduling order or the
// (time, seq) tiebreak shows up here as a hard failure.

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/workload"
)

type goldenResult struct {
	time        float64
	sends       uint64
	recvs       uint64
	bytesSent   uint64
	events      uint64
	busWait     float64
	busBusy     float64
	busRequests uint64
	busQueued   uint64
}

func runGolden(t *testing.T, bm apps.Benchmark) simmpi.Result {
	t.Helper()
	g := grid.Cube(96)
	dec := grid.MustDecompose(g, 16, 16)
	mach := machine.XT4()
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	sim := simmpi.New(topo)
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkGolden(t *testing.T, res simmpi.Result, want goldenResult) {
	t.Helper()
	if res.Time != want.time {
		t.Errorf("Time = %x, want %x", res.Time, want.time)
	}
	if res.Sends != want.sends {
		t.Errorf("Sends = %d, want %d", res.Sends, want.sends)
	}
	if res.Recvs != want.recvs {
		t.Errorf("Recvs = %d, want %d", res.Recvs, want.recvs)
	}
	if res.BytesSent != want.bytesSent {
		t.Errorf("BytesSent = %d, want %d", res.BytesSent, want.bytesSent)
	}
	if res.Events != want.events {
		t.Errorf("Events = %d, want %d", res.Events, want.events)
	}
	if res.BusWait != want.busWait {
		t.Errorf("BusWait = %x, want %x", res.BusWait, want.busWait)
	}
	if res.BusBusy != want.busBusy {
		t.Errorf("BusBusy = %x, want %x", res.BusBusy, want.busBusy)
	}
	if res.BusRequests != want.busRequests {
		t.Errorf("BusRequests = %d, want %d", res.BusRequests, want.busRequests)
	}
	if res.BusQueued != want.busQueued {
		t.Errorf("BusQueued = %d, want %d", res.BusQueued, want.busQueued)
	}
}

func TestGoldenLU(t *testing.T) {
	checkGolden(t, runGolden(t, apps.LU(grid.Cube(96))), goldenResult{
		time:        0x1.78c5a4ebdd2ebp+13, // 12056.705527999866 µs
		sends:       114240,
		recvs:       114240,
		bytesSent:   44236800,
		events:      524417,
		busWait:     0x1.6bf91a57411e4p+20,
		busBusy:     0x1.2e5c02f2f9846p+18,
		busRequests: 167552,
		busQueued:   32323,
	})
}

func TestGoldenSweep3D(t *testing.T) {
	checkGolden(t, runGolden(t, apps.Sweep3D(grid.Cube(96), 2)), goldenResult{
		time:        0x1.ef532e2b8c5d7p+14, // 31700.795087998584 µs
		sends:       184320,
		recvs:       184320,
		bytesSent:   106168320,
		events:      786943,
		busWait:     0x1.7fc9dd462ec73p+16,
		busBusy:     0x1.eb6db940fed65p+18,
		busRequests: 270336,
		busQueued:   88180,
	})
}

func TestGoldenChimaera(t *testing.T) {
	checkGolden(t, runGolden(t, apps.Chimaera(grid.Cube(96), 1)), goldenResult{
		time:        0x1.9ea68f2becda1p+15, // 53075.2796319977 µs
		sends:       368640,
		recvs:       368640,
		bytesSent:   176947200,
		events:      1573117,
		busWait:     0x1.52587dc728fap+17,
		busBusy:     0x1.e99a95421bf21p+19,
		busRequests: 540672,
		busQueued:   174002,
	})
}

// TestGoldenRepeatable runs the same configuration twice and demands
// byte-identical results — the same-seed reproducibility the engine's
// (time, seq) ordering guarantees.
func TestGoldenRepeatable(t *testing.T) {
	a := runGolden(t, apps.Sweep3D(grid.Cube(96), 2))
	b := runGolden(t, apps.Sweep3D(grid.Cube(96), 2))
	if a.Time != b.Time || a.Events != b.Events || a.BusWait != b.BusWait {
		t.Errorf("re-run diverged: %v vs %v", a, b)
	}
	for i := range a.RankFinish {
		if a.RankFinish[i] != b.RankFinish[i] {
			t.Fatalf("rank %d finish diverged: %x vs %x", i, a.RankFinish[i], b.RankFinish[i])
		}
	}
}

// TestAllocsPerEvent enforces the allocation budget of the hot path:
// below 0.005 heap allocations per executed event, setup included. The
// seed implementation sat at ~3.5 allocs/event; the pooled typed-event
// engine runs at ~0.0017, so one allocation more every 100 events
// (0.0117) fails.
func TestAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	const budget = 0.005
	g := grid.Cube(64)
	bm := apps.Sweep3D(g, 2)
	mach := machine.XT4()
	dec := grid.MustDecompose(g, 16, 16)
	var events uint64
	run := func() {
		sched, err := bm.Schedule(dec, 1)
		if err != nil {
			t.Fatal(err)
		}
		topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
		sim := simmpi.New(topo)
		for r, p := range sched.Programs() {
			sim.SetProgram(r, p)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		events = res.Events
	}
	allocs := testing.AllocsPerRun(2, run)
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocs / %d events = %.4f allocs/event", allocs, events, perEvent)
	if perEvent >= budget {
		t.Errorf("allocation budget blown: %.4f allocs/event, want < %g", perEvent, budget)
	}
}

// TestLiveBytesPerRank is the per-rank memory budget: once a 1,024-rank
// run has finished, everything it keeps reachable — schedule, topology,
// simulator and wavefront cursors — stays within a budget of live heap
// bytes per rank. Each budget sits 4 bytes above what the run keeps on
// amd64, so one 8-byte field more per rank record fails both cases, and
// one more per link (3,072 links, +24 bytes per rank) fails the torus one.
func TestLiveBytesPerRank(t *testing.T) {
	work := workload.Spec{Dist: workload.DistLognormal, Sigma: 0.1, Seed: 1}
	cases := []struct {
		name   string
		bm     apps.Benchmark
		mach   machine.Machine
		shards int
		budget float64 // bytes per rank
	}{
		// Serial Sweep3D on the flat wire keeps 464.9.
		{"sweep3d", apps.Sweep3D(grid.NewGrid(32, 32, 32), 2).WithWorkload(work), machine.XT4(), 1, 469},
		// LU over an 8×8×8 torus at 2 shards keeps 572.4.
		{"lu-torus3d-2shards", apps.LU(grid.NewGrid(32, 32, 32)).WithWorkload(work),
			machine.XT4().WithInterconnect(topo.Spec{Kind: topo.Torus3D}), 2, 576},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dec := grid.MustDecompose(c.bm.Grid, 32, 32)
			// A first run's reading also counts some 30–40 KB that the
			// test process frees around it, outside the simulation (the
			// heap profiles of two runs' live state match), so the budget
			// reads a second run.
			retainedBytes(t, c.bm, c.mach, dec, c.shards)
			perRank := float64(retainedBytes(t, c.bm, c.mach, dec, c.shards)) / float64(dec.P())
			t.Logf("%.1f live bytes per rank after a %d-rank run", perRank, dec.P())
			if perRank > c.budget {
				t.Errorf("live heap %.1f bytes per rank, want at most %g", perRank, c.budget)
			}
		})
	}
}

// retainedBytes runs one simulation and returns the live heap bytes that
// dropping its schedule, topology and simulator frees.
func retainedBytes(t *testing.T, bm apps.Benchmark, mach machine.Machine, dec grid.Decomposition, shards int) int64 {
	t.Helper()
	var live, dropped runtime.MemStats
	func() {
		sched, err := bm.Schedule(dec, 1)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := simnet.NewMachineTopology(mach, dec)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := simmpi.NewWithOptions(tp, simmpi.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for r, p := range sched.Programs() {
			sim.SetProgram(r, p)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&live)
		runtime.KeepAlive(sim)
	}()
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	return int64(live.HeapAlloc) - int64(dropped.HeapAlloc)
}
