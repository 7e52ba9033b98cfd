package topo

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// minTorusDist is the reference minimal hop count between two coordinates
// on one ring dimension.
func minTorusDist(a, b, size int) int {
	d := ((b-a)%size + size) % size
	if size-d < d {
		return size - d
	}
	return d
}

// decodeTorusLink inverts torusLink for traversal checks.
func decodeTorusLink(ic *Interconnect, l int32) (node, dim, dir int) {
	node = int(l) / (ic.ndims * 2)
	dim = (int(l) / 2) % ic.ndims
	dir = int(l) % 2
	return
}

// TestTorusRoutesMinimal checks every pair of nodes on a 4x3 torus and a
// 3x3x2 torus: the dimension-order route has exactly the minimal hop count,
// starts at the source, steps over adjacent links only, and ends at the
// destination.
func TestTorusRoutesMinimal(t *testing.T) {
	cases := []struct {
		kind Kind
		dims []int
	}{
		{Torus2D, []int{4, 3}},
		{Torus3D, []int{3, 3, 2}},
	}
	for _, tc := range cases {
		nodes := 1
		for _, d := range tc.dims {
			nodes *= d
		}
		ic, err := New(Spec{Kind: tc.kind, Dims: tc.dims}, nodes, 0.0004)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				route := ic.AppendRoute(nil, src, dst)
				want := 0
				cs, cd := ic.torusCoord(src), ic.torusCoord(dst)
				for dim := 0; dim < ic.ndims; dim++ {
					want += minTorusDist(cs[dim], cd[dim], ic.dims[dim])
				}
				if len(route) != want {
					t.Fatalf("%v route %d→%d has %d hops, want minimal %d", tc.kind, src, dst, len(route), want)
				}
				// Walk the route: each link must leave the current node and
				// arrive at the destination after the last hop.
				cur := cs
				for _, l := range route {
					node, dim, dir := decodeTorusLink(ic, l)
					if node != ic.torusNode(cur) {
						t.Fatalf("%v route %d→%d: link %d leaves node %d, cursor at %d",
							tc.kind, src, dst, l, node, ic.torusNode(cur))
					}
					step := 1
					if dir == 1 {
						step = ic.dims[dim] - 1
					}
					cur[dim] = (cur[dim] + step) % ic.dims[dim]
				}
				if ic.torusNode(cur) != dst {
					t.Fatalf("%v route %d→%d ends at node %d", tc.kind, src, dst, ic.torusNode(cur))
				}
			}
		}
	}
}

// TestTorusTieBreak: with an even ring, the half-way distance routes in the
// positive direction deterministically.
func TestTorusTieBreak(t *testing.T) {
	ic, err := New(Spec{Kind: Torus2D, Dims: []int{4, 1}}, 4, 0.0004)
	if err != nil {
		t.Fatal(err)
	}
	route := ic.AppendRoute(nil, 0, 2) // distance 2 both ways
	if len(route) != 2 {
		t.Fatalf("tie route has %d hops, want 2", len(route))
	}
	for _, l := range route {
		if _, _, dir := decodeTorusLink(ic, l); dir != 0 {
			t.Fatalf("tie route used negative direction (link %d)", l)
		}
	}
}

// TestFatTreeUpDown: routes are a strict up-phase followed by a down-phase
// (never down then up), 2 links within a leaf and 4 across leaves, and all
// traffic to one destination shares a spine.
func TestFatTreeUpDown(t *testing.T) {
	const nodes = 16
	ic, err := New(Spec{Kind: FatTree, LeafRadix: 4, Spine: 4}, nodes, 0.0004)
	if err != nil {
		t.Fatal(err)
	}
	fabricNodes := ic.leaves * ic.leafRadix
	isUp := func(l int32) bool {
		if int(l) < 2*fabricNodes {
			return l%2 == 0
		}
		return (l-int32(2*fabricNodes))%2 == 0
	}
	spineOf := map[int]int{} // dst → spine switch observed
	spineNum := func(l int32) int {
		return (int(l) - 2*fabricNodes) / 2 % ic.spine
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			route := ic.AppendRoute(nil, src, dst)
			wantLen := 4
			if src/ic.leafRadix == dst/ic.leafRadix {
				wantLen = 2
			}
			if len(route) != wantLen {
				t.Fatalf("route %d→%d has %d links, want %d", src, dst, len(route), wantLen)
			}
			downSeen := false
			for _, l := range route {
				if isUp(l) {
					if downSeen {
						t.Fatalf("route %d→%d goes up after down: %v", src, dst, route)
					}
				} else {
					downSeen = true
				}
			}
			if route[len(route)-1] != ic.nodeDown(dst) {
				t.Fatalf("route %d→%d does not end at dst downlink", src, dst)
			}
			if wantLen == 4 {
				up, down := spineNum(route[1]), spineNum(route[2])
				if up != down {
					t.Fatalf("route %d→%d changes spine mid-flight (%d→%d)", src, dst, up, down)
				}
				if prev, ok := spineOf[dst]; ok && prev != up {
					t.Fatalf("destination %d reached via two spines (%d, %d)", dst, prev, up)
				}
				spineOf[dst] = up
			}
		}
	}
}

// TestLinkOccupancyConservesBytes: after routing a batch of messages, the
// total busy time over all links equals hops × size × LinkG exactly. LinkG
// is picked so size×LinkG is a power of two, making repeated float addition
// exact and the conservation check bit-precise.
func TestLinkOccupancyConservesBytes(t *testing.T) {
	const size = 1024
	const linkG = 1.0 / 2048 // size×linkG = 0.5 exactly
	for _, spec := range []Spec{
		{Kind: Torus2D, Dims: []int{4, 4}, LinkG: linkG},
		{Kind: Torus3D, Dims: []int{2, 2, 2}, LinkG: linkG},
		{Kind: FatTree, LeafRadix: 2, Spine: 2, LinkG: linkG},
	} {
		nodes := 8
		if spec.Kind == Torus2D {
			nodes = 16
		}
		ic, err := New(spec, nodes, 0.0004)
		if err != nil {
			t.Fatal(err)
		}
		totalHops := 0
		now := 0.0
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				if src == dst {
					continue
				}
				totalHops += len(ic.AppendRoute(nil, src, dst))
				ic.Acquire(src, dst, now, size)
				now += 1
			}
		}
		requests, _, busy, _ := ic.Stats()
		if requests != uint64(totalHops) {
			t.Errorf("%s: %d link acquisitions, want %d (one per hop)", spec, requests, totalHops)
		}
		if want := float64(totalHops) * 0.5; busy != want {
			t.Errorf("%s: total link busy %v, want exactly %v — bytes not conserved", spec, busy, want)
		}
	}
}

// TestAcquireUncontendedSingleHopIsFree: a 1-hop route with idle links and
// no queueing adds zero delay — the flat-wire equivalence that keeps
// bus-only behaviour reachable as a special case.
func TestAcquireUncontendedSingleHopIsFree(t *testing.T) {
	ic, err := New(Spec{Kind: Torus2D, Dims: []int{4, 4}}, 16, 0.0004)
	if err != nil {
		t.Fatal(err)
	}
	if d := ic.Acquire(0, 1, 10, 4096); d != 0 {
		t.Errorf("uncontended single hop cost %v, want 0", d)
	}
	// Same message again while the link is still busy must queue.
	if d := ic.Acquire(0, 1, 10, 4096); d <= 0 {
		t.Errorf("second message on a busy link cost %v, want queueing > 0", d)
	}
	// Same-node traffic never touches the fabric.
	if d := ic.Acquire(3, 3, 0, 1<<20); d != 0 {
		t.Errorf("same-node acquire cost %v, want 0", d)
	}
}

// TestReserveMatchesAcquire: routes walked up front and reserved later in
// the same order charge exactly what Acquire charges, with the same link
// tracer calls in the same order — the split a sharded simulation uses.
func TestReserveMatchesAcquire(t *testing.T) {
	type call struct {
		link             int32
		start, wait, dur float64
	}
	for _, spec := range []Spec{{Kind: Torus2D}, {Kind: Torus3D}, {Kind: FatTree, LeafRadix: 2, Spine: 1}} {
		const nodes = 12
		a, errA := New(spec, nodes, 0.0004)
		b, errB := New(spec, nodes, 0.0004)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		var callsA, callsB []call
		a.SetLinkTracer(func(l int32, start, wait, dur float64) { callsA = append(callsA, call{l, start, wait, dur}) })
		b.SetLinkTracer(func(l int32, start, wait, dur float64) { callsB = append(callsB, call{l, start, wait, dur}) })
		var routes []int32
		var spans [][2]int
		for i := 0; i < 60; i++ {
			lo := len(routes)
			routes = b.AppendRoute(routes, i%nodes, (i*5+3)%nodes)
			spans = append(spans, [2]int{lo, len(routes)})
		}
		for i, sp := range spans {
			now, size := 0.1*float64(i/12), 4096+64*(i%7)
			da := a.Acquire(i%nodes, (i*5+3)%nodes, now, size)
			if db := b.Reserve(routes[sp[0]:sp[1]], now, size); da != db {
				t.Fatalf("%s message %d: Acquire %v, Reserve %v", spec, i, da, db)
			}
		}
		if _, q, _, _ := a.Stats(); q == 0 {
			t.Errorf("%s: no reservation queued; contention is not exercised", spec)
		}
		if !reflect.DeepEqual(callsA, callsB) {
			t.Errorf("%s: link tracer calls differ", spec)
		}
	}
}

// TestHopLatency: each hop beyond the first adds exactly HopL on an idle
// fabric.
func TestHopLatency(t *testing.T) {
	ic, err := New(Spec{Kind: Torus2D, Dims: []int{5, 1}, HopL: 0.25}, 5, 0.0004)
	if err != nil {
		t.Fatal(err)
	}
	if d := ic.Acquire(0, 2, 0, 8); d != 0.25 {
		t.Errorf("2-hop acquire cost %v, want 0.25 (one extra hop)", d)
	}
}

// TestResetClearsLinks: Reset zeroes link occupancy and statistics.
func TestResetClearsLinks(t *testing.T) {
	ic, err := New(Spec{Kind: FatTree}, 8, 0.0004)
	if err != nil {
		t.Fatal(err)
	}
	ic.Acquire(0, 7, 0, 1<<16)
	ic.Acquire(0, 7, 0, 1<<16)
	if rq, q, _, _ := ic.Stats(); rq == 0 || q == 0 {
		t.Fatalf("stats before reset: %d hops, %d queued; want both non-zero", rq, q)
	}
	ic.Reset()
	rq, q, busy, waited := ic.Stats()
	if rq != 0 || q != 0 || busy != 0 || waited != 0 || ic.MaxLinkBusy() != 0 {
		t.Errorf("stats after reset: %d %d %v %v, max busy %v", rq, q, busy, waited, ic.MaxLinkBusy())
	}
}

// TestReserveTallies: Reserve counts one request per hop and one queued
// request per hop that waits, and Stats sums the links' busy and waiting
// time, on a torus and on a fat-tree. Two messages reserve the same route
// at the same time: the second waits one occupancy at the first hop and
// then trails the first by exactly that much, so no later hop waits.
func TestReserveTallies(t *testing.T) {
	const size = 1024
	const linkG = 1.0 / 2048 // occupancy 0.5, exact in float arithmetic
	for _, c := range []struct {
		spec     Spec
		nodes    int
		src, dst int
		hops     int
	}{
		{Spec{Kind: Torus2D, Dims: []int{4, 4}, LinkG: linkG, HopL: 0.125}, 16, 0, 10, 4},
		{Spec{Kind: Torus3D, Dims: []int{2, 2, 2}, LinkG: linkG, HopL: 0.125}, 8, 0, 7, 3},
		{Spec{Kind: FatTree, LeafRadix: 2, Spine: 2, LinkG: linkG, HopL: 0.125}, 8, 0, 7, 4},
		{Spec{Kind: FatTree, LeafRadix: 2, Spine: 2, LinkG: linkG, HopL: 0.125}, 8, 0, 1, 2},
	} {
		ic, err := New(c.spec, c.nodes, 0.0004)
		if err != nil {
			t.Fatal(err)
		}
		route := ic.AppendRoute(nil, c.src, c.dst)
		if len(route) != c.hops {
			t.Fatalf("%s %d→%d: %d hops, want %d", c.spec, c.src, c.dst, len(route), c.hops)
		}
		first := ic.Reserve(route, 0, size)
		second := ic.Reserve(route, 0, size)
		extra := float64(c.hops-1) * 0.125
		if first != extra || second != extra+0.5 {
			t.Errorf("%s: delays %v and %v, want %v and %v", c.spec, first, second, extra, extra+0.5)
		}
		rq, q, busy, waited := ic.Stats()
		if rq != uint64(2*c.hops) || q != 1 {
			t.Errorf("%s: %d hops, %d queued; want %d and 1", c.spec, rq, q, 2*c.hops)
		}
		if busy != float64(2*c.hops)*0.5 || waited != 0.5 {
			t.Errorf("%s: busy %v, waited %v; want %v and 0.5", c.spec, busy, waited, float64(2*c.hops)*0.5)
		}
		if m := ic.MaxLinkBusy(); m != 1 {
			t.Errorf("%s: hottest link busy %v, want 1", c.spec, m)
		}
		ic.Reserve(nil, 5, size) // an empty route reserves nothing
		if rq2, q2, _, _ := ic.Stats(); rq2 != rq || q2 != q {
			t.Errorf("%s: empty route moved the tallies to %d, %d", c.spec, rq2, q2)
		}
	}
}

// TestSpecString: specs render compactly for labels, with fat-tree
// defaults filled in once either parameter is set.
func TestSpecString(t *testing.T) {
	for text, spec := range map[string]Spec{
		"bus":                   {},
		"torus3d":               {Kind: Torus3D},
		"torus2d[6x6]":          {Kind: Torus2D, Dims: []int{6, 6}},
		"torus3d[4x4x2]":        {Kind: Torus3D, Dims: []int{4, 4, 2}},
		"fattree":               {Kind: FatTree},
		"fattree[leaf4,spine2]": {Kind: FatTree, Spine: 2},
		"fattree[leaf8,spine8]": {Kind: FatTree, LeafRadix: 8},
	} {
		if got := spec.String(); got != text {
			t.Errorf("%+v renders %q, want %q", spec, got, text)
		}
	}
}

// TestNilInterconnect: the nil fabric (bus-only) degrades every method.
func TestNilInterconnect(t *testing.T) {
	var ic *Interconnect
	if d := ic.Acquire(0, 5, 0, 1024); d != 0 {
		t.Errorf("nil Acquire = %v", d)
	}
	if r := ic.AppendRoute(nil, 0, 5); r != nil {
		t.Errorf("nil AppendRoute = %v", r)
	}
	if d := ic.Reserve(nil, 0, 1024); d != 0 {
		t.Errorf("nil Reserve = %v", d)
	}
	ic.Reset() // must not panic
	if rq, _, _, _ := ic.Stats(); rq != 0 {
		t.Error("nil Stats non-zero")
	}
}

// TestAutoDims: auto-sized tori cover the node count with near-cubic shapes.
func TestAutoDims(t *testing.T) {
	ic, err := New(Spec{Kind: Torus2D}, 12, 0.0004)
	if err != nil {
		t.Fatal(err)
	}
	if ic.dims[0]*ic.dims[1] < 12 {
		t.Errorf("2D auto dims %v cover %d nodes, need 12", ic.dims, ic.dims[0]*ic.dims[1])
	}
	ic, err = New(Spec{Kind: Torus3D}, 30, 0.0004)
	if err != nil {
		t.Fatal(err)
	}
	if ic.dims[0]*ic.dims[1]*ic.dims[2] < 30 {
		t.Errorf("3D auto dims %v do not cover 30 nodes", ic.dims)
	}
}

// TestNewErrors: undersized explicit dims and bad specs fail.
func TestNewErrors(t *testing.T) {
	if _, err := New(Spec{Kind: Torus2D, Dims: []int{2, 2}}, 16, 0.0004); err == nil {
		t.Error("2x2 torus accepted for 16 nodes")
	}
	if _, err := New(Spec{Kind: Torus2D}, 0, 0.0004); err == nil {
		t.Error("zero node count accepted")
	}
	bad := []Spec{
		{Kind: Torus2D, Dims: []int{4}},
		{Kind: Torus3D, Dims: []int{4, 4}},
		{Kind: Torus2D, Dims: []int{4, 0}},
		{Kind: Torus2D, LeafRadix: 4},
		{Kind: FatTree, Dims: []int{4, 4}},
		{Kind: Bus, Dims: []int{2, 2}},
		{Kind: FatTree, LinkG: -1},
		{Kind: Kind(99)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
}

// TestBusIsNil: the bus spec instantiates to the nil fabric.
func TestBusIsNil(t *testing.T) {
	ic, err := New(Spec{}, 64, 0.0004)
	if err != nil || ic != nil {
		t.Errorf("bus spec: ic=%v err=%v", ic, err)
	}
}

// TestSpecJSON: kinds round-trip as names and unknown names fail strictly.
func TestSpecJSON(t *testing.T) {
	in := Spec{Kind: FatTree, LeafRadix: 8, Spine: 4, HopL: 0.1}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"fattree"`) {
		t.Errorf("encoded spec: %s", data)
	}
	var out Spec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round-trip %+v != %+v", out, in)
	}
	var bad Spec
	if err := json.Unmarshal([]byte(`{"kind": "hypercube"}`), &bad); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := json.Unmarshal([]byte(`{"kind": 3}`), &bad); err == nil {
		t.Error("numeric kind accepted")
	}
}

// TestLinkNames: names are unique and decodable per fabric.
func TestLinkNames(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: Torus3D, Dims: []int{2, 2, 2}},
		{Kind: FatTree, LeafRadix: 2, Spine: 3},
	} {
		ic, err := New(spec, 8, 0.0004)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i := range ic.links {
			name := ic.LinkName(i)
			if seen[name] {
				t.Errorf("%s: duplicate link name %q", spec, name)
			}
			seen[name] = true
		}
	}
}
