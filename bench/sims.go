package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/workload"
)

// simCase is one simulator workload's fixed shape; the seed only picks the
// per-tile imbalance draws, so event, send and byte counts do not depend on
// it.
type simCase struct {
	app    string
	grid   grid.Grid
	n, m   int // processor array
	htile  int // 0: the app's default
	mach   machine.Machine
	shards int
}

func sweep3dCase(toy bool) simCase {
	c := simCase{app: "sweep3d", grid: grid.NewGrid(64, 64, 32), n: 64, m: 64, htile: 2, mach: machine.XT4(), shards: 1}
	if toy {
		c.grid, c.n, c.m = grid.NewGrid(16, 16, 8), 8, 8
	}
	return c
}

func luCase(toy bool) simCase {
	c := simCase{app: "lu", grid: grid.Cube(64), n: 64, m: 64,
		mach: machine.XT4().WithInterconnect(topo.Spec{Kind: topo.Torus3D}), shards: workers}
	if toy {
		c.grid, c.n, c.m = grid.Cube(16), 8, 8
	}
	return c
}

// simSetup is one set-up of a simCase: schedule, topology and simulator
// state, reusing *sim through ResetWithOptions after the first.
type simSetup struct {
	total, topoBuild, sim time.Duration
	err                   error
}

func setupSim(c simCase, bm apps.Benchmark, dec grid.Decomposition, shards int, sim **simmpi.Sim, tr *tracer, parent uint64) simSetup {
	var out simSetup
	t0 := time.Now()
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		out.err = err
		return out
	}
	t1 := time.Now()
	tp, err := simnet.NewMachineTopology(c.mach, dec)
	if err != nil {
		out.err = err
		return out
	}
	t2 := time.Now()
	opt := simmpi.Options{Shards: shards}
	if *sim == nil {
		*sim, err = simmpi.NewWithOptions(tp, opt)
	} else {
		err = (*sim).ResetWithOptions(tp, opt)
	}
	if err != nil {
		out.err = err
		return out
	}
	for r, p := range sched.Programs() {
		(*sim).SetProgram(r, p)
	}
	t3 := time.Now()
	tr.record(0, "wavefront.schedule", parent, 0, t0, t1)
	tr.record(0, "simnet.topology", parent, 0, t1, t2)
	tr.record(0, "simmpi.setup", parent, 0, t2, t3)
	out.total, out.topoBuild, out.sim = t3.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return out
}

// simRun is one timed Run of a set-up simulator.
type simRun struct {
	run    time.Duration
	allocs uint64 // heap allocations during Run (traced phase only)
	res    simmpi.Result
	err    error
}

func runOnce(sim *simmpi.Sim, tr *tracer, parent uint64) simRun {
	var out simRun
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	out.res, out.err = sim.Run()
	out.run = time.Since(t0)
	tr.since("simmpi.run", parent, 0, t0)
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		out.allocs = after.Mallocs - before.Mallocs
	}
	return out
}

// setupsPerRun is how many times each repeat sets the simulation up before
// running it; setup_s is the median over all of them.
const setupsPerRun = 5

// runSim times repeated set-up + Run of one simulation until cfg.seconds
// have passed (at least three repeats after one warm-up). Every repeat must
// reproduce the committed counts and the warm-up's simulated time bit for
// bit.
func runSim(c simCase, cfg config, exp *expectation, tr *tracer) measurement {
	var m measurement
	bm, err := apps.Preset(c.app, c.grid, c.htile)
	if err != nil {
		m.fail("%v", err)
		return m
	}
	bm = bm.WithWorkload(workload.Spec{Dist: workload.DistLognormal, Sigma: 0.1, Seed: cfg.seed})
	dec := grid.MustDecompose(c.grid, c.n, c.m)

	var sim *simmpi.Sim
	if st := setupSim(c, bm, dec, c.shards, &sim, nil, 0); st.err != nil {
		m.fail("set-up: %v", st.err)
		return m
	}
	warm := runOnce(sim, nil, 0)
	m.Attempted++
	if warm.err != nil {
		m.fail("warm-up run: %v", warm.err)
		return m
	}
	ref := warm.res
	m.Observed = expectation{Events: ref.Events, Sends: ref.Sends, Bytes: ref.BytesSent}
	if cfg.seed == defaultSeed {
		m.Observed.TimeBits = timeBits(ref.Time)
	}
	m.checkCounts(ref, exp, cfg.seed)

	var nsPerEvent, allocsPerEvent, topoMS, setupMS []float64
	start := time.Now()
	for i := 0; i < 3 || time.Since(start).Seconds() < cfg.seconds; i++ {
		id := tr.id()
		t0 := time.Now()
		// Collect the previous Run's garbage outside the timed set-ups.
		runtime.GC()
		var st simSetup
		for j := 0; j < setupsPerRun && st.err == nil; j++ {
			st = setupSim(c, bm, dec, c.shards, &sim, tr, id)
			m.Setup = append(m.Setup, st.total.Seconds())
			topoMS = append(topoMS, ms(st.topoBuild))
			setupMS = append(setupMS, ms(st.sim))
		}
		m.Attempted++
		if st.err != nil {
			m.fail("repeat %d: set-up: %v", i, st.err)
			continue
		}
		r := runOnce(sim, tr, id)
		tr.record(id, "repeat", 0, 0, t0, time.Now())
		if r.err != nil {
			m.fail("repeat %d: %v", i, r.err)
			continue
		}
		if r.res.Time != ref.Time || r.res.Events != ref.Events {
			m.fail("repeat %d: time %x events %d, warm-up had %x %d", i, r.res.Time, r.res.Events, ref.Time, ref.Events)
			continue
		}
		if len(m.OpMS) == 0 {
			m.HeapMB = heapMB()
		}
		m.OpMS = append(m.OpMS, ms(r.run))
		m.Rates = append(m.Rates, float64(r.res.Events)/r.run.Seconds())
		ev := float64(r.res.Events)
		nsPerEvent = append(nsPerEvent, float64(r.run.Nanoseconds())/ev)
		allocsPerEvent = append(allocsPerEvent, float64(r.allocs)/ev)
	}
	if tr == nil {
		return m
	}
	m.layer("simmpi.run_ns_per_event", median(nsPerEvent))
	m.layer("simmpi.allocs_per_event", median(allocsPerEvent))
	m.layer("simnet.topology_build_ms", median(topoMS))
	m.layer("simmpi.setup_ms", median(setupMS))
	if _, windows, stalls := sim.ParallelStats(); windows > 0 {
		m.layer("des.group.windows", float64(windows))
		m.layer("des.group.stalls_per_window", float64(stalls)/float64(windows))
		// The same input on one shard, for the sharded speedup.
		m.Attempted++
		serial := simRun{err: setupSim(c, bm, dec, 1, &sim, tr, 0).err}
		if serial.err == nil {
			serial = runOnce(sim, tr, 0)
		}
		if serial.err != nil {
			m.fail("serial reference run: %v", serial.err)
		} else {
			m.layer("des.group.speedup", serial.run.Seconds()/(median(m.OpMS)/1e3))
		}
	}
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		m.fail("%v", err)
		return m
	}
	nsPerOp, ops := drainPrograms(sched.Programs())
	m.layer("wavefront.expand_ns_per_op", nsPerOp)
	m.layer("wavefront.ops_per_event", float64(ops)/float64(ref.Events))
	if c.mach.Interconnect.Kind != topo.Bus {
		tp, err := simnet.NewMachineTopology(c.mach, dec)
		if err != nil {
			m.fail("%v", err)
			return m
		}
		m.layer("topo.acquire_ns", acquireNS(tp, dec, bm.App.EWBytes(dec, bm.App.Htile)))
	}
	return m
}

// checkCounts compares the run's seed-independent counts, and at the
// default seed its simulated time, with the committed values.
func (m *measurement) checkCounts(r simmpi.Result, exp *expectation, seed uint64) {
	if exp == nil {
		m.mismatch("no committed values for this workload (run with -bless)")
		return
	}
	if r.Events != exp.Events || r.Sends != exp.Sends || r.BytesSent != exp.Bytes {
		m.mismatch("events/sends/bytes %d/%d/%d, committed %d/%d/%d",
			r.Events, r.Sends, r.BytesSent, exp.Events, exp.Sends, exp.Bytes)
	}
	if seed == defaultSeed && timeBits(r.Time) != exp.TimeBits {
		m.mismatch("simulated time bits %s, committed %s", timeBits(r.Time), exp.TimeBits)
	}
}

func timeBits(t float64) string { return fmt.Sprintf("0x%016x", math.Float64bits(t)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// drainPrograms pulls every operation out of the programs and returns the
// cost per operation and the operation count.
func drainPrograms(progs []simmpi.Program) (nsPerOp float64, ops int) {
	t0 := time.Now()
	for _, p := range progs {
		for {
			if _, ok := p.Next(); !ok {
				break
			}
			ops++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(max(ops, 1)), ops
}

// acquireNS times Interconnect.Acquire over the off-node east and south
// neighbour pairs of the decomposition — the links a wavefront sweep
// reserves — at a steadily advancing virtual time.
func acquireNS(tp *simnet.Topology, dec grid.Decomposition, bytes int) float64 {
	ic := tp.Interconnect()
	var pairs [][2]int
	for r := 0; r < dec.P(); r++ {
		c := dec.CoordOf(r)
		for _, nb := range []grid.Coord{{I: c.I + 1, J: c.J}, {I: c.I, J: c.J + 1}} {
			if dec.Contains(nb) && !tp.SameNode(r, dec.Rank(nb)) {
				pairs = append(pairs, [2]int{tp.NodeOf(r), tp.NodeOf(dec.Rank(nb))})
			}
		}
	}
	if len(pairs) == 0 {
		return 0
	}
	return medianOf(func() float64 {
		ic.Reset()
		n := 0
		t0 := time.Now()
		for now := 0.0; n < 200_000; now++ {
			for _, p := range pairs {
				ic.Acquire(p[0], p[1], now, bytes)
				n++
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	})
}
