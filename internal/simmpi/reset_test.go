package simmpi_test

// Tests of the Sim.ResetWithOptions reuse API: a reset simulator must behave
// bit-identically to a freshly constructed one (the campaign engine depends
// on this for worker-count-independent results), and back-to-back runs of
// the same configuration must be near-allocation-free so sweeps amortise
// the pools of PR 1 across runs, not just within one.

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

// freshRun simulates one iteration of bm at p ranks on a new Sim.
func freshRun(t *testing.T, bm apps.Benchmark, p int) simmpi.Result {
	t.Helper()
	dec, err := grid.SquareDecomposition(bm.App.Grid, p)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.XT4()
	topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	sim := simmpi.New(topo)
	for r, pr := range sched.Programs() {
		sim.SetProgram(r, pr)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resetRun simulates bm at p ranks on sim after a reset.
func resetRun(t *testing.T, sim *simmpi.Sim, bm apps.Benchmark, p int) simmpi.Result {
	t.Helper()
	dec, err := grid.SquareDecomposition(bm.App.Grid, p)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.XT4()
	topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	if err := sim.ResetWithOptions(topo, simmpi.Options{}); err != nil {
		t.Fatal(err)
	}
	for r, pr := range sched.Programs() {
		sim.SetProgram(r, pr)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(t *testing.T, name string, a, b simmpi.Result) {
	t.Helper()
	if a.Time != b.Time || a.Events != b.Events || a.Sends != b.Sends ||
		a.Recvs != b.Recvs || a.BytesSent != b.BytesSent ||
		a.BusWait != b.BusWait || a.BusBusy != b.BusBusy ||
		a.BusRequests != b.BusRequests || a.BusQueued != b.BusQueued {
		t.Errorf("%s: reset run diverged from fresh run:\n fresh %+v\n reset %+v", name, a, b)
	}
	for i := range a.RankFinish {
		if a.RankFinish[i] != b.RankFinish[i] {
			t.Fatalf("%s: rank %d finish diverged: %x vs %x", name, i, a.RankFinish[i], b.RankFinish[i])
		}
	}
}

// TestResetBitIdentical reuses one Sim across the three paper benchmarks at
// varying rank counts — shrinking and growing the rank array, re-shaping the
// channel tables — and demands each run match a fresh simulator to the last
// bit.
func TestResetBitIdentical(t *testing.T) {
	g := grid.Cube(24)
	cases := []struct {
		name string
		bm   apps.Benchmark
		p    int
	}{
		{"sweep3d-16", apps.Sweep3D(g, 2), 16},
		{"lu-64", apps.LU(g), 64},
		{"chimaera-4", apps.Chimaera(g, 1), 4},
		{"sweep3d-36", apps.Sweep3D(g, 2), 36},
	}
	mach := machine.XT4()
	seed := simnet.NewTopology(mach.Params, 4, simnet.SpreadPlacement())
	sim := simmpi.New(seed)
	for r := 0; r < 4; r++ {
		sim.SetProgram(r, simmpi.Ops(simmpi.AllReduce(8)))
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		sameResult(t, tc.name, freshRun(t, tc.bm, tc.p), resetRun(t, sim, tc.bm, tc.p))
	}
}

// TestResetSideTables reuses one Sim through a serial run, a sharded run
// over more ranks, which grows the cross-shard in-port table, and a
// serial run that records spans, which allocates the span table only
// then. Each result, and the recorded spans, must equal a fresh Sim's.
func TestResetSideTables(t *testing.T) {
	g := grid.Cube(32)
	bm := apps.LU(g)
	mach := machine.XT4()
	// run simulates bm at p ranks with options o, on sim after a reset, or
	// on a fresh Sim when sim is nil.
	run := func(sim *simmpi.Sim, p int, o simmpi.Options) (simmpi.Result, *simmpi.Sim) {
		t.Helper()
		dec, err := grid.SquareDecomposition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := bm.Schedule(dec, 1)
		if err != nil {
			t.Fatal(err)
		}
		topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
		if sim == nil {
			sim, err = simmpi.NewWithOptions(topo, o)
		} else {
			err = sim.ResetWithOptions(topo, o)
		}
		if err != nil {
			t.Fatal(err)
		}
		for r, pr := range sched.Programs() {
			sim.SetProgram(r, pr)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if k, _, _ := sim.ParallelStats(); k != max(o.Shards, 1) {
			t.Fatalf("%d ranks, %d shards requested: the run used %d", p, o.Shards, k)
		}
		return res, sim
	}
	var reused *simmpi.Sim
	for _, tc := range []struct {
		name   string
		p      int
		shards int
		spans  bool
	}{
		{"serial-64", 64, 0, false},
		{"sharded-256", 256, 2, false},
		{"spans-64", 64, 0, true},
	} {
		fresh, again := &obs.Recorder{Spans: tc.spans}, &obs.Recorder{Spans: tc.spans}
		want, _ := run(nil, tc.p, simmpi.Options{Shards: tc.shards, Obs: fresh})
		var got simmpi.Result
		got, reused = run(reused, tc.p, simmpi.Options{Shards: tc.shards, Obs: again})
		sameFull(t, tc.name, want, got)
		a, b := fresh.SpanList(), again.SpanList()
		if tc.spans && len(a) == 0 {
			t.Fatalf("%s: no spans recorded", tc.name)
		}
		if !slices.Equal(a, b) {
			t.Errorf("%s: the reset Sim recorded %d spans, a fresh one %d, and they differ", tc.name, len(b), len(a))
		}
	}
}

// collectiveProgs builds per-rank programs running a mix of every expanded
// collective with interleaved compute.
func collectiveProgs(ranks int) []*simmpi.SliceProgram {
	progs := make([]*simmpi.SliceProgram, ranks)
	for r := 0; r < ranks; r++ {
		progs[r] = simmpi.Ops(
			simmpi.Compute(float64(r)*0.25),
			simmpi.Bcast(0, 4096),
			simmpi.AllReduceAlg(8192, simmpi.AlgRing),
			simmpi.Compute(1.0),
			simmpi.AllReduceAlg(64, simmpi.AlgRecDouble),
			simmpi.Barrier(),
		)
	}
	return progs
}

// collectiveRun simulates the collective mix at the given rank count on sim
// (nil: a fresh simulator).
func collectiveRun(t *testing.T, sim *simmpi.Sim, ranks int) simmpi.Result {
	t.Helper()
	mach := machine.XT4()
	topo := simnet.NewTopology(mach.Params, ranks, simnet.LinearPlacement(mach))
	if sim == nil {
		sim = simmpi.New(topo)
	} else {
		if err := sim.ResetWithOptions(topo, simmpi.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for r, p := range collectiveProgs(ranks) {
		sim.SetProgram(r, p)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResetCollectiveBitIdentical reuses one Sim across collective-heavy
// programs at shrinking and growing rank counts — exercising the pooled
// per-rank expansion buffers — and demands bit-identity with fresh runs.
func TestResetCollectiveBitIdentical(t *testing.T) {
	sim := simmpi.New(simnet.NewTopology(machine.XT4().Params, 4, simnet.SpreadPlacement()))
	for r := 0; r < 4; r++ {
		sim.SetProgram(r, simmpi.Ops(simmpi.Barrier()))
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{16, 7, 32, 16} {
		name := fmt.Sprintf("collectives-%d", ranks)
		sameResult(t, name, collectiveRun(t, nil, ranks), collectiveRun(t, sim, ranks))
	}
}

// TestShardedCollectives: expanded collectives give one answer at every
// shard count ≥ 2, on fresh simulators and on one reused across rank and
// shard counts. Each rank exchanges a message with a neighbour first, so
// the shards of a run reach their first expansion inside a window, at
// once, and share the collective side table, which the race detector
// checks.
func TestShardedCollectives(t *testing.T) {
	mach := machine.XT4()
	run := func(sim *simmpi.Sim, ranks, shards int) (*simmpi.Sim, simmpi.Result) {
		t.Helper()
		topo := simnet.NewTopology(mach.Params, ranks, simnet.LinearPlacement(mach))
		opt := simmpi.Options{Shards: shards}
		var err error
		if sim == nil {
			sim, err = simmpi.NewWithOptions(topo, opt)
		} else {
			err = sim.ResetWithOptions(topo, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < ranks; r++ {
			first := simmpi.Send(r^1, 64)
			if r%2 == 1 {
				first = simmpi.Recv(r ^ 1)
			}
			sim.SetProgram(r, simmpi.Ops(first,
				simmpi.Bcast(0, 4096),
				simmpi.AllReduceAlg(8192, simmpi.AlgRing),
				simmpi.Compute(1.0),
				simmpi.AllReduceAlg(64, simmpi.AlgRecDouble),
				simmpi.Barrier(),
			))
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if k, _, _ := sim.ParallelStats(); k != shards {
			t.Fatalf("%d ranks at %d shards ran on %d", ranks, shards, k)
		}
		return sim, res
	}
	var reused *simmpi.Sim
	for _, ranks := range []int{16, 32, 8} {
		_, want := run(nil, ranks, 2)
		for _, shards := range []int{2, 3, 4} {
			name := fmt.Sprintf("%d ranks, %d shards", ranks, shards)
			_, got := run(nil, ranks, shards)
			sameResult(t, name, want, got)
			reused, got = run(reused, ranks, shards)
			sameResult(t, name+", reused", want, got)
		}
	}
}

// allocsPerReuse returns the mean heap allocations of resetting sim onto a
// fresh topology, setting fresh programs and running, over n re-runs. The
// topology and programs are built before the count starts, as the campaign
// engine builds them per run, so the count is the Sim's own reuse.
func allocsPerReuse(t *testing.T, sim *simmpi.Sim, n int, fresh func() (*simnet.Topology, []*simmpi.SliceProgram)) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < n; i++ {
		topo, progs := fresh()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := sim.ResetWithOptions(topo, simmpi.Options{}); err != nil {
			t.Fatal(err)
		}
		for r, p := range progs {
			sim.SetProgram(r, p)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	return float64(total) / float64(n)
}

// TestResetCollectiveAllocsNearZero extends the reuse contract to
// collectives: once a Sim has expanded a collective program, re-running it
// after a reset must stay within the same ≤8 allocs budget as point-to-point
// traffic — the expansion buffers, pools and rings must all be reused.
func TestResetCollectiveAllocsNearZero(t *testing.T) {
	const ranks = 16
	mach := machine.XT4()
	fresh := func() (*simnet.Topology, []*simmpi.SliceProgram) {
		return simnet.NewTopology(mach.Params, ranks, simnet.LinearPlacement(mach)), collectiveProgs(ranks)
	}
	topo, _ := fresh()
	sim := simmpi.New(topo)
	allocsPerReuse(t, sim, 1, fresh) // the first run grows the pools and expansion buffers
	allocs := allocsPerReuse(t, sim, 10, fresh)
	t.Logf("%.1f allocs per collective re-run", allocs)
	if allocs > 8 {
		t.Errorf("collective reset run allocates too much: %.1f allocs/run, want ≤ 8", allocs)
	}
}

// TestResetAllocsNearZero is the reuse contract: once a Sim has run a
// configuration, re-running it after a reset must allocate near zero — a
// couple of Result slices, nothing proportional to events or messages.
func TestResetAllocsNearZero(t *testing.T) {
	const ranks = 16
	const rounds = 50
	mach := machine.XT4()
	// A neighbour ring of eager and rendezvous traffic with interleaved
	// compute, exercising pools, rings and the bus without all-reduce
	// generations (which allocate by design, once per generation).
	ops := make([][]simmpi.Op, ranks)
	for r := 0; r < ranks; r++ {
		next := (r + 1) % ranks
		prev := (r + ranks - 1) % ranks
		for i := 0; i < rounds; i++ {
			ops[r] = append(ops[r],
				simmpi.Compute(1.5),
				simmpi.Send(next, 512),
				simmpi.Recv(prev),
				simmpi.Send(next, 4096),
				simmpi.Recv(prev),
			)
		}
	}
	fresh := func() (*simnet.Topology, []*simmpi.SliceProgram) {
		progs := make([]*simmpi.SliceProgram, ranks)
		for r := range progs {
			progs[r] = simmpi.Ops(ops[r]...)
		}
		return simnet.NewTopology(mach.Params, ranks, simnet.LinearPlacement(mach)), progs
	}
	topo, progs := fresh()
	sim := simmpi.New(topo)
	for r, p := range progs {
		sim.SetProgram(r, p)
	}
	res, err := sim.Run() // the first run grows the pools
	if err != nil {
		t.Fatal(err)
	}
	allocs := allocsPerReuse(t, sim, 10, fresh)
	t.Logf("%.1f allocs per re-run over %d events", allocs, res.Events)
	// Result carries two fresh per-rank slices; everything else must reuse.
	if allocs > 8 {
		t.Errorf("reset run allocates too much: %.1f allocs/run, want ≤ 8", allocs)
	}
}
