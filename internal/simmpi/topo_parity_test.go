package simmpi_test

// Interconnect parity tests: attaching a link fabric must be invisible
// whenever no message crosses nodes (1-node machines), must be exactly
// repeatable run to run, and must leave the flat-wire path bit-identical
// when the spec is bus-only (the golden tests pin the latter against the
// seed implementation).

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// runWithInterconnect simulates one Sweep3D iteration on the machine with
// the given interconnect spec attached.
func runWithInterconnect(t *testing.T, g grid.Grid, n, m int, mach machine.Machine, spec topo.Spec) simmpi.Result {
	t.Helper()
	dec := grid.MustDecompose(g, n, m)
	sched, err := apps.Sweep3D(g, 2).Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	if err := tp.AttachInterconnect(spec); err != nil {
		t.Fatal(err)
	}
	sim := simmpi.New(tp)
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Results are compared with reset_test.go's sameResult: bit-for-bit over
// time, traffic, bus statistics and every per-rank finish time.

// TestOneNodeDegradesToBusOnly: with every rank on a single node there is
// no off-node traffic, so a torus or fat-tree fabric must be bit-invisible:
// identical times, identical bus statistics, zero link activity.
func TestOneNodeDegradesToBusOnly(t *testing.T) {
	g := grid.Cube(16)
	mach, err := machine.XT4MultiCore(16) // 4×4 rectangle hosts all 16 ranks
	if err != nil {
		t.Fatal(err)
	}
	base := runWithInterconnect(t, g, 4, 4, mach, topo.Spec{})
	for _, spec := range []topo.Spec{
		{Kind: topo.Torus2D},
		{Kind: topo.Torus3D},
		{Kind: topo.FatTree},
	} {
		res := runWithInterconnect(t, g, 4, 4, mach, spec)
		sameResult(t, spec.String(), base, res)
		if res.LinkRequests != 0 || res.LinkWait != 0 || res.LinkBusy != 0 {
			t.Errorf("%s: 1-node run touched links: %d requests", spec, res.LinkRequests)
		}
	}
}

// TestInterconnectRepeatable: a torus-connected multi-node run is exactly
// repeatable — link queueing is deterministic like every other resource.
func TestInterconnectRepeatable(t *testing.T) {
	g := grid.Cube(24)
	mach := machine.XT4()
	spec := topo.Spec{Kind: topo.Torus2D}
	a := runWithInterconnect(t, g, 6, 6, mach, spec)
	b := runWithInterconnect(t, g, 6, 6, mach, spec)
	sameResult(t, "repeat", a, b)
	if a.LinkRequests == 0 {
		t.Fatal("multi-node torus run never touched a link")
	}
}

// TestInterconnectChangesMultiNodeTiming: across nodes the fabric is not a
// no-op — per-hop latency and link queueing must show up for multi-hop
// traffic, and link byte conservation must hold at the Result level.
func TestInterconnectChangesMultiNodeTiming(t *testing.T) {
	g := grid.Cube(24)
	mach := machine.XT4()
	bus := runWithInterconnect(t, g, 6, 6, mach, topo.Spec{})
	// An expensive fabric (big per-hop latency) must slow the wavefront.
	slow := runWithInterconnect(t, g, 6, 6, mach, topo.Spec{Kind: topo.Torus2D, HopL: 50})
	if slow.Time <= bus.Time {
		t.Errorf("hopL=50 torus time %v not above flat-wire %v", slow.Time, bus.Time)
	}
	if slow.LinkBusy <= 0 {
		t.Error("torus run accumulated no link busy time")
	}
}

// TestResetClearsInterconnect: a simulator reset onto a fresh topology, as
// the campaign engine resets its workers' simulators, reproduces the first
// run bit-for-bit, link statistics included.
func TestResetClearsInterconnect(t *testing.T) {
	g := grid.Cube(24)
	mach := machine.XT4()
	dec := grid.MustDecompose(g, 6, 6)
	fatTree := func() *simnet.Topology {
		tp := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
		if err := tp.AttachInterconnect(topo.Spec{Kind: topo.FatTree}); err != nil {
			t.Fatal(err)
		}
		return tp
	}
	run := func(sim *simmpi.Sim) simmpi.Result {
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
		return res
	}
	sim := simmpi.New(fatTree())
	first := run(sim)
	if err := sim.ResetWithOptions(fatTree(), simmpi.Options{}); err != nil {
		t.Fatal(err)
	}
	second := run(sim)
	sameResult(t, "reset", first, second)
	if first.LinkWait != second.LinkWait || first.LinkRequests != second.LinkRequests {
		t.Errorf("link stats drift across reset: %v/%d vs %v/%d",
			first.LinkWait, first.LinkRequests, second.LinkWait, second.LinkRequests)
	}
}
