package simmpi_test

// Serial/parallel equivalence: the conservative sharded scheduler must be
// bit-identical to the serial engine for every shard count — same Time,
// same per-rank finish times, same traffic and contention statistics. The
// property is exercised over the paper benchmarks (eager + on-chip paths,
// all-reduce convergence), a rendezvous-heavy synthetic exchange, and
// every interconnect fabric (deferred link replay), plus deadlock reporting,
// Reset-reuse of a sharded simulator, its ParallelStats, and panics raised
// inside a shard.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/topo"
)

var shardCounts = []int{1, 2, 3, 4, 8}

func sameFull(t *testing.T, name string, a, b simmpi.Result) {
	t.Helper()
	sameResult(t, name, a, b)
	for i := range a.ComputeTime {
		if a.ComputeTime[i] != b.ComputeTime[i] {
			t.Fatalf("%s: rank %d compute time diverged: %x vs %x", name, i, a.ComputeTime[i], b.ComputeTime[i])
		}
	}
	if a.LinkRequests != b.LinkRequests || a.LinkQueued != b.LinkQueued ||
		a.LinkBusy != b.LinkBusy || a.LinkWait != b.LinkWait {
		t.Errorf("%s: link stats diverged:\n a %+v\n b %+v", name, a, b)
	}
}

// runBench simulates one iteration of a benchmark over a fresh topology
// with the given shard count, reporting the effective shard count used.
func runBench(t *testing.T, bm apps.Benchmark, g grid.Grid, n, m int, mach machine.Machine, spec topo.Spec, shards int) (simmpi.Result, int) {
	t.Helper()
	dec := grid.MustDecompose(g, n, m)
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	if err := tp.AttachInterconnect(spec); err != nil {
		t.Fatal(err)
	}
	sim, err := simmpi.NewWithOptions(tp, simmpi.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	k, _, _ := sim.ParallelStats()
	return res, k
}

// TestParallelMatchesSerialBenchmarks: the paper benchmarks — eager,
// on-chip and all-reduce traffic over a 2-cores-per-node machine — are
// bit-identical at every shard count.
func TestParallelMatchesSerialBenchmarks(t *testing.T) {
	g := grid.Cube(32)
	for _, tc := range []struct {
		name string
		bm   apps.Benchmark
	}{
		{"sweep3d", apps.Sweep3D(g, 2)},
		{"lu", apps.LU(g)},
	} {
		base, _ := runBench(t, tc.bm, g, 8, 8, machine.XT4(), topo.Spec{}, 1)
		for _, k := range shardCounts[1:] {
			res, eff := runBench(t, tc.bm, g, 8, 8, machine.XT4(), topo.Spec{}, k)
			if eff != k {
				t.Fatalf("%s: requested %d shards, ran with %d", tc.name, k, eff)
			}
			sameFull(t, tc.name, base, res)
		}
	}
}

// TestParallelMatchesSerialTorus exercises the deferred link replay on
// every fabric: each interconnect reservation crosses the barrier and must
// reproduce the serial acquisition order exactly, wait times included.
func TestParallelMatchesSerialTorus(t *testing.T) {
	g := grid.Cube(32)
	for _, spec := range []topo.Spec{{Kind: topo.Torus2D}, {Kind: topo.Torus3D}, {Kind: topo.FatTree}} {
		for _, tc := range []struct {
			name string
			bm   apps.Benchmark
		}{
			{"sweep3d", apps.Sweep3D(g, 2)},
			{"lu", apps.LU(g)},
		} {
			name := tc.name + "/" + spec.String()
			base, _ := runBench(t, tc.bm, g, 8, 8, machine.XT4(), spec, 1)
			if base.LinkRequests == 0 {
				t.Fatalf("%s: run never touched a link", name)
			}
			for _, k := range shardCounts[1:] {
				res, eff := runBench(t, tc.bm, g, 8, 8, machine.XT4(), spec, k)
				if eff != k {
					t.Fatalf("%s: requested %d shards, ran with %d", name, k, eff)
				}
				sameFull(t, fmt.Sprintf("%s, %d shards", name, k), base, res)
			}
		}
	}
}

// rendezvousPrograms builds a phased neighbour exchange over n ranks mixing
// rendezvous-sized and eager messages with skewed compute and a closing
// all-reduce — every cross-shard protocol path in one program.
func rendezvousPrograms(sim *simmpi.Sim, n int) {
	for r := 0; r < n; r++ {
		right, left := (r+1)%n, (r+n-1)%n
		var ops []simmpi.Op
		ops = append(ops, simmpi.Compute(float64(r%7)*0.9))
		if r%2 == 0 {
			ops = append(ops,
				simmpi.Send(right, 5000), simmpi.Recv(left),
				simmpi.Recv(right), simmpi.Send(left, 200),
			)
		} else {
			ops = append(ops,
				simmpi.Recv(left), simmpi.Send(right, 5000),
				simmpi.Send(left, 200), simmpi.Recv(right),
			)
		}
		ops = append(ops, simmpi.AllReduce(16), simmpi.Compute(1.5))
		if r%2 == 0 {
			ops = append(ops, simmpi.Send(right, 3000), simmpi.Recv(left))
		} else {
			ops = append(ops, simmpi.Recv(left), simmpi.Send(right, 3000))
		}
		sim.SetProgram(r, simmpi.Ops(ops...))
	}
}

// runRendezvous runs the exchange on 32 ranks placed linearly over nodes
// of the given core count, with the given interconnect attached.
func runRendezvous(t *testing.T, cores int, spec topo.Spec, shards int) (simmpi.Result, int) {
	t.Helper()
	const n = 32
	mach, err := machine.XT4MultiCore(cores)
	if err != nil {
		t.Fatal(err)
	}
	tp := simnet.NewTopology(mach.Params, n, simnet.LinearPlacement(mach))
	if err := tp.AttachInterconnect(spec); err != nil {
		t.Fatal(err)
	}
	sim, err := simmpi.NewWithOptions(tp, simmpi.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	rendezvousPrograms(sim, n)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	k, windows, _ := sim.ParallelStats()
	if k > 1 && windows == 0 {
		t.Fatalf("parallel run with %d shards executed no windows", k)
	}
	return res, k
}

// TestParallelMatchesSerialRendezvous pins the cross-shard rendezvous
// protocol: RTS, CTS and data arrival each cross the boundary separately.
// On two-core nodes every odd rank's rendezvous send is off-node, so with
// a fabric attached the data injection's deferred link reservation and the
// cross-shard arrival it produces are exercised too.
func TestParallelMatchesSerialRendezvous(t *testing.T) {
	for _, tc := range []struct {
		cores int
		spec  topo.Spec
	}{
		{4, topo.Spec{}},
		{2, topo.Spec{Kind: topo.Torus2D}},
		{2, topo.Spec{Kind: topo.Torus3D}},
		{2, topo.Spec{Kind: topo.FatTree}},
	} {
		name := fmt.Sprintf("rendezvous/%d cores/%s", tc.cores, tc.spec)
		base, _ := runRendezvous(t, tc.cores, tc.spec, 1)
		if base.Sends == 0 {
			t.Fatalf("%s: exchange sent nothing", name)
		}
		if tc.spec.Kind != topo.Bus && base.LinkRequests == 0 {
			t.Fatalf("%s: run never touched a link", name)
		}
		for _, k := range shardCounts[1:] {
			res, eff := runRendezvous(t, tc.cores, tc.spec, k)
			if eff != k {
				t.Fatalf("%s: requested %d shards, ran with %d", name, k, eff)
			}
			sameFull(t, fmt.Sprintf("%s, %d shards", name, k), base, res)
		}
	}
}

// TestParallelDeadlockReported: a rank blocking forever is reported with
// the same diagnostic serially and in parallel.
func TestParallelDeadlockReported(t *testing.T) {
	run := func(shards int) error {
		mach, err := machine.XT4MultiCore(4)
		if err != nil {
			t.Fatal(err)
		}
		tp := simnet.NewTopology(mach.Params, 8, simnet.LinearPlacement(mach))
		sim, err := simmpi.NewWithOptions(tp, simmpi.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// Rank 7 waits for a message rank 0 never sends; cross-shard at k=2.
		sim.SetProgram(7, simmpi.Ops(simmpi.Recv(0)))
		sim.SetProgram(0, simmpi.Ops(simmpi.Send(1, 64)))
		sim.SetProgram(1, simmpi.Ops(simmpi.Recv(0)))
		_, err = sim.Run()
		return err
	}
	serr, perr := run(1), run(2)
	if serr == nil || perr == nil {
		t.Fatalf("deadlock not reported: serial=%v parallel=%v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Errorf("deadlock diagnostics differ:\n serial   %v\n parallel %v", serr, perr)
	}
	if !strings.Contains(perr.Error(), "7") {
		t.Errorf("blocked rank not named: %v", perr)
	}
}

// TestParallelResetReuse: a sharded Sim reused through ResetWithOptions
// (the campaign engine's pattern) stays bit-identical to fresh serial runs.
func TestParallelResetReuse(t *testing.T) {
	g := grid.Cube(32)
	base, _ := runBench(t, apps.Sweep3D(g, 2), g, 8, 8, machine.XT4(), topo.Spec{}, 1)

	mach := machine.XT4()
	dec := grid.MustDecompose(g, 8, 8)
	mk := func() *simnet.Topology {
		return simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	}
	opt := simmpi.Options{Shards: 4}
	sim, err := simmpi.NewWithOptions(mk(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		if run > 0 {
			if err := sim.ResetWithOptions(mk(), opt); err != nil {
				t.Fatal(err)
			}
		}
		sched, err := apps.Sweep3D(g, 2).Schedule(dec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for r, p := range sched.Programs() {
			sim.SetProgram(r, p)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if k, _, _ := sim.ParallelStats(); k != 4 {
			t.Fatalf("run %d: ran with %d shards, want 4", run, k)
		}
		sameFull(t, "reuse", base, res)
	}
}

// ringSim builds an 8-rank eager ring, two ranks per node, with the given
// options.
func ringSim(t *testing.T, sim *simmpi.Sim, mach machine.Machine, opt simmpi.Options) *simmpi.Sim {
	t.Helper()
	const n = 8
	tp := simnet.NewTopology(mach.Params, n, simnet.LinearPlacement(mach))
	var err error
	if sim == nil {
		sim, err = simmpi.NewWithOptions(tp, opt)
	} else {
		err = sim.ResetWithOptions(tp, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		sim.SetProgram(r, simmpi.Ops(simmpi.Send((r+1)%n, 64), simmpi.Recv((r+n-1)%n)))
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestParallelStatsResetEveryRun: a serial Run on a Sim that last ran
// sharded reports a serial run, whether it asked for no shards or asked
// for shards and fell back to serial (a single node).
func TestParallelStatsResetEveryRun(t *testing.T) {
	oneNode, err := machine.XT4MultiCore(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mach machine.Machine
		opt  simmpi.Options
	}{
		{"serial", machine.XT4(), simmpi.Options{}},
		{"fallback", oneNode, simmpi.Options{Shards: 2}},
	} {
		sim := ringSim(t, nil, machine.XT4(), simmpi.Options{Shards: 2})
		if k, windows, _ := sim.ParallelStats(); k != 2 || windows == 0 {
			t.Fatalf("%s: sharded ring reported (%d shards, %d windows)", tc.name, k, windows)
		}
		ringSim(t, sim, tc.mach, tc.opt)
		if k, windows, stalls := sim.ParallelStats(); k != 1 || windows != 0 || stalls != 0 {
			t.Errorf("%s: serial rerun reported (%d, %d, %d), want (1, 0, 0)", tc.name, k, windows, stalls)
		}
	}
}

// TestParallelZeroOverheadLinkReplay: with zero send overheads an
// injection can fire after a same-time injection of higher priority in its
// shard: rank 0's eager send to rank 8 follows its zero-cost on-chip DMA,
// after rank 4's injection to rank 8 has fired. Both contend for the links
// into rank 8's node, so the deferred link replay must apply them in one
// order for every shard count, whether or not ranks 0 and 4 share a shard.
func TestParallelZeroOverheadLinkReplay(t *testing.T) {
	mach := machine.XT4()
	mach.Params.O, mach.Params.Ochip, mach.Params.Ocopy = 0, 0, 0
	run := func(shards int) simmpi.Result {
		tp := simnet.NewTopology(mach.Params, 16, simnet.LinearPlacement(mach))
		if err := tp.AttachInterconnect(topo.Spec{Kind: topo.Torus2D}); err != nil {
			t.Fatal(err)
		}
		sim, err := simmpi.NewWithOptions(tp, simmpi.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetProgram(0, simmpi.Ops(simmpi.Send(1, 5000), simmpi.Send(8, 64)))
		sim.SetProgram(1, simmpi.Ops(simmpi.Recv(0)))
		sim.SetProgram(4, simmpi.Ops(simmpi.Send(8, 1000)))
		sim.SetProgram(8, simmpi.Ops(simmpi.Recv(0), simmpi.Recv(4)))
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if k, _, _ := sim.ParallelStats(); k != shards {
			t.Fatalf("requested %d shards, ran with %d", shards, k)
		}
		return res
	}
	base := run(2)
	if base.LinkQueued == 0 {
		t.Fatal("no link reservation queued; the replay order is not exercised")
	}
	for _, k := range []int{3, 4, 8} {
		sameFull(t, fmt.Sprintf("zero overhead, %d shards", k), base, run(k))
	}
}

// TestParallelShardPanicReachesCaller: a handler panic inside a shard that
// a helper goroutine runs (an invalid peer on shard 1) reaches the caller
// of Run, names the shard, and leaves no goroutine behind.
func TestParallelShardPanicReachesCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	before := runtime.NumGoroutine()
	mach := machine.XT4()
	tp := simnet.NewTopology(mach.Params, 8, simnet.LinearPlacement(mach))
	sim, err := simmpi.NewWithOptions(tp, simmpi.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 2–3 share node 1, which the 2-shard layout deals to shard 1.
	sim.SetProgram(3, simmpi.Ops(simmpi.Compute(1), simmpi.Send(99, 64)))
	v := func() (v any) {
		defer func() { v = recover() }()
		_, _ = sim.Run()
		return nil
	}()
	msg := fmt.Sprint(v)
	if !strings.Contains(msg, "shard 1 panicked") || !strings.Contains(msg, "invalid peer 99") {
		t.Fatalf("recovered %q, want shard 1's invalid-peer panic", msg)
	}
	// A helper that has signalled its exit may still be unwinding.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
	}
}
