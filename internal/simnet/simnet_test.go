package simnet

import (
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/topo"
)

func TestGridPlacementRectangles(t *testing.T) {
	// On a 4×4 grid of a 2×2-core machine, each node hosts a 2×2 block.
	dec := grid.MustDecompose(grid.Cube(16), 4, 4)
	mach, err := machine.XT4MultiCore(4)
	if err != nil {
		t.Fatal(err)
	}
	place := GridPlacement(dec, mach)
	nodeOf := func(i, j int) int {
		n, _ := place(dec.Rank(grid.Coord{I: i, J: j}))
		return n
	}
	if nodeOf(1, 1) != nodeOf(2, 2) {
		t.Error("(1,1) and (2,2) should share a node")
	}
	if nodeOf(1, 1) == nodeOf(3, 1) {
		t.Error("(1,1) and (3,1) should be on different nodes")
	}
	if nodeOf(1, 1) == nodeOf(1, 3) {
		t.Error("(1,1) and (1,3) should be on different nodes")
	}
	// All 16 ranks over 4 nodes.
	topo := NewTopology(mach.Params, dec.P(), place)
	if got := nodes(topo); got != 4 {
		t.Errorf("nodes = %d, want 4", got)
	}
}

// nodes returns the number of distinct nodes hosting the topology's ranks.
func nodes(topo *Topology) int {
	seen := map[int]bool{}
	for r := 0; r < topo.Ranks(); r++ {
		seen[topo.NodeOf(r)] = true
	}
	return len(seen)
}

func TestGridPlacementDualCoreXT4(t *testing.T) {
	// 1×2 rectangles: vertical neighbour pairs share nodes.
	dec := grid.MustDecompose(grid.Cube(16), 4, 4)
	mach := machine.XT4()
	topo := NewTopology(mach.Params, dec.P(), GridPlacement(dec, mach))
	r := func(i, j int) int { return dec.Rank(grid.Coord{I: i, J: j}) }
	if !topo.SameNode(r(1, 1), r(1, 2)) {
		t.Error("(1,1)-(1,2) should share a node on 1x2 cores")
	}
	if topo.SameNode(r(1, 2), r(1, 3)) {
		t.Error("(1,2)-(1,3) must not share a node")
	}
	if topo.SameNode(r(1, 1), r(2, 1)) {
		t.Error("horizontal neighbours must not share a node")
	}
	if topo.Path(r(1, 1), r(1, 2)) != logp.OnChip {
		t.Error("vertical pair should be on-chip")
	}
	if topo.Path(r(1, 1), r(2, 1)) != logp.OffNode {
		t.Error("horizontal pair should be off-node")
	}
}

func TestLinearPlacement(t *testing.T) {
	mach := machine.XT4()
	topo := NewTopology(mach.Params, 6, LinearPlacement(mach))
	if !topo.SameNode(0, 1) || topo.SameNode(1, 2) || !topo.SameNode(4, 5) {
		t.Error("linear placement pairs wrong")
	}
	if got := nodes(topo); got != 3 {
		t.Errorf("nodes = %d, want 3", got)
	}
}

// TestAppendRoute: a rank pair's route is its nodes' route — empty on the
// flat wire and within a node — and reserving it charges what AcquireLinks
// charges on an identical fabric.
func TestAppendRoute(t *testing.T) {
	mach := machine.XT4()
	flat := NewTopology(mach.Params, 8, LinearPlacement(mach))
	if r := flat.AppendRoute(nil, 0, 7); len(r) != 0 {
		t.Errorf("flat-wire route %v, want none", r)
	}
	a := NewTopology(mach.Params, 8, LinearPlacement(mach))
	b := NewTopology(mach.Params, 8, LinearPlacement(mach))
	for _, tp := range []*Topology{a, b} {
		if err := tp.AttachInterconnect(topo.Spec{Kind: topo.Torus2D}); err != nil {
			t.Fatal(err)
		}
	}
	if r := b.AppendRoute(nil, 2, 3); len(r) != 0 {
		t.Errorf("same-node route %v, want none", r)
	}
	for _, pair := range [][2]int{{0, 7}, {1, 6}, {0, 7}} {
		route := b.AppendRoute(nil, pair[0], pair[1])
		if want := b.Interconnect().AppendRoute(nil, b.NodeOf(pair[0]), b.NodeOf(pair[1])); !reflect.DeepEqual(route, want) {
			t.Fatalf("ranks %v: route %v, nodes' route %v", pair, route, want)
		}
		if da, db := a.AcquireLinks(pair[0], pair[1], 1, 4096), b.Interconnect().Reserve(route, 1, 4096); da != db {
			t.Errorf("ranks %v: AcquireLinks %v, Reserve %v", pair, da, db)
		}
	}
}

func TestSpreadPlacement(t *testing.T) {
	topo := NewTopology(logp.XT4(), 5, SpreadPlacement())
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			if topo.SameNode(a, b) {
				t.Fatalf("spread placement put %d and %d on one node", a, b)
			}
		}
	}
}

func TestBusGroups(t *testing.T) {
	// A 16-core node with 4 bus groups: cores 0–3 share a bus, 4–7 the
	// next, etc. Acquisitions on different buses do not queue each other.
	mach, err := machine.XT4MultiCoreGrouped(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	topo := NewTopology(mach.Params, 16, LinearPlacement(mach))
	if w := topo.AcquireBus(0, 0, 4096); w != 0 {
		t.Errorf("first acquire waited %v", w)
	}
	if w := topo.AcquireBus(1, 0, 4096); w <= 0 {
		t.Error("same-bus acquire should wait")
	}
	if w := topo.AcquireBus(4, 0, 4096); w != 0 {
		t.Errorf("different-bus acquire waited %v", w)
	}
	req, q, busy, waited := topo.BusStats()
	if req != 3 || q != 1 || busy <= 0 || waited <= 0 {
		t.Errorf("BusStats = %d %d %v %v", req, q, busy, waited)
	}
}

func TestBusOccupancyIsPaperI(t *testing.T) {
	p := logp.XT4()
	topo := NewTopology(p, 2, SpreadPlacement())
	want := p.Odma() + 4096*p.Gdma
	if got := topo.BusOccupancy(4096); got != want {
		t.Errorf("BusOccupancy = %v, want I = odma + size×Gdma = %v", got, want)
	}
}

func TestNewTopologyPanicsOnZeroRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTopology(logp.XT4(), 0, SpreadPlacement())
}
