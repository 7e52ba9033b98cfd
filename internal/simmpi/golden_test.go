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
// below 0.5 heap allocations per executed event, setup included. The seed
// implementation sat at ~3.5 allocs/event; the pooled typed-event engine
// runs at ~0.002.
func TestAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
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
	if perEvent >= 0.5 {
		t.Errorf("allocation budget blown: %.4f allocs/event, want < 0.5", perEvent)
	}
}

// TestLiveBytesPerRank is the per-rank memory budget: once a 1,024-rank
// Sweep3D run has finished, everything it keeps reachable — schedule,
// topology, simulator and wavefront cursors — stays within 600 live heap
// bytes per rank. The run keeps 484 on amd64; the rest is headroom for
// allocator rounding, not for a per-rank structure to grow back.
func TestLiveBytesPerRank(t *testing.T) {
	const budget = 600
	g := grid.NewGrid(32, 32, 32)
	dec := grid.MustDecompose(g, 32, 32)
	bm := apps.Sweep3D(g, 2).WithWorkload(workload.Spec{Dist: workload.DistLognormal, Sigma: 0.1, Seed: 1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := simnet.NewMachineTopology(machine.XT4(), dec)
	if err != nil {
		t.Fatal(err)
	}
	sim := simmpi.New(topo)
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sim)
	perRank := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(dec.P())
	t.Logf("%.0f live bytes per rank after a %d-rank run", perRank, dec.P())
	if perRank > budget {
		t.Errorf("live heap %.0f bytes per rank, want at most %d", perRank, budget)
	}
}
