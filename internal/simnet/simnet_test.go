package simnet

import (
	"reflect"
	"slices"
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

// TestMachineTopologyLinks: NewMachineTopology attaches the machine's
// interconnect, off-node segments reserve its links, LinkStats reads the
// fabric's hop tallies, and the flat wire costs and counts nothing.
func TestMachineTopologyLinks(t *testing.T) {
	dec := grid.MustDecompose(grid.Cube(16), 4, 4)
	flat, err := NewMachineTopology(machine.XT4(), dec)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Interconnect() != nil || flat.AcquireLinks(0, 15, 0, 4096) != 0 {
		t.Error("flat-wire machine routed over links")
	}
	if rq, q, busy, waited := flat.LinkStats(); rq != 0 || q != 0 || busy != 0 || waited != 0 {
		t.Errorf("flat-wire LinkStats = %d %d %v %v", rq, q, busy, waited)
	}
	if l := flat.Lookahead(); l != flat.Params.L {
		t.Errorf("Lookahead = %v, want L = %v", l, flat.Params.L)
	}
	torus, err := NewMachineTopology(machine.XT4().WithInterconnect(topo.Spec{Kind: topo.Torus2D}), dec)
	if err != nil {
		t.Fatal(err)
	}
	var traced int
	torus.SetLinkTracer(func(int32, float64, float64, float64) { traced++ })
	hops := len(torus.AppendRoute(nil, 0, 15))
	torus.AcquireLinks(0, 15, 0, 4096)
	torus.AcquireLinks(0, 15, 0, 4096)
	rq, q, busy, _ := torus.LinkStats()
	if hops == 0 || rq != uint64(2*hops) || q == 0 || busy <= 0 || traced != 2*hops {
		t.Errorf("LinkStats = %d hops (%d traced), %d queued, busy %v; want %d hops, some queued", rq, traced, q, busy, 2*hops)
	}
	if _, err := NewMachineTopology(machine.XT4().WithInterconnect(topo.Spec{Kind: topo.Torus2D, Dims: []int{2, 2}}), dec); err == nil {
		t.Error("a 2×2 torus accepted the 8 nodes of a 16-rank XT4 run")
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
	busy, waited := topo.BusStats()
	if want := 3 * topo.BusOccupancy(4096); busy != want || waited != topo.BusOccupancy(4096) {
		t.Errorf("BusStats = %v %v, want %v busy and one occupancy of wait", busy, waited, want)
	}
}

// referenceBusIDs numbers buses through a map keyed by (node, bus group), in
// order of first appearance: the reference NewTopology's numbering must
// match.
func referenceBusIDs(ranks int, place Placement) []int32 {
	index := map[[2]int]int32{}
	ids := make([]int32, ranks)
	for r := range ids {
		node, bus := place(r)
		id, ok := index[[2]int{node, bus}]
		if !ok {
			id = int32(len(index))
			index[[2]int{node, bus}] = id
		}
		ids[r] = id
	}
	return ids
}

// TestBusIDsFirstAppearance: bus ids come out in the order their first rank
// appears, as the map-based numbering gave them, for every placement over
// several machine shapes, so BusStats sums the buses in the same order.
func TestBusIDsFirstAppearance(t *testing.T) {
	var machs []machine.Machine
	for _, shape := range [][2]int{{1, 1}, {2, 1}, {4, 1}, {4, 2}, {8, 4}, {16, 4}, {16, 16}} {
		m, err := machine.XT4MultiCoreGrouped(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		machs = append(machs, m)
	}
	machs = append(machs, machine.XT4())
	for _, m := range machs {
		for _, pq := range [][2]int{{8, 8}, {16, 4}, {12, 20}} {
			dec := grid.MustDecompose(grid.NewGrid(64, 64, 8), pq[0], pq[1])
			places := map[string]Placement{
				"grid":   GridPlacement(dec, m),
				"linear": LinearPlacement(m),
				"spread": SpreadPlacement(),
			}
			for name, place := range places {
				tp := NewTopology(m.Params, dec.P(), place)
				want := referenceBusIDs(dec.P(), place)
				if !reflect.DeepEqual(tp.busOf, want) {
					t.Errorf("%s, %s on %d×%d: bus ids %v, want %v", m.Name, name, pq[0], pq[1], tp.busOf, want)
				}
				if n := int(slices.Max(want)) + 1; len(tp.buses) != n {
					t.Errorf("%s, %s on %d×%d: %d buses, want %d", m.Name, name, pq[0], pq[1], len(tp.buses), n)
				}
			}
		}
	}
}

func TestNewTopologyPanicsOnNegativePlacement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTopology(logp.XT4(), 2, func(r int) (int, int) { return r - 1, 0 })
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
