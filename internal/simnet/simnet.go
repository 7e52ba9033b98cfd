// Package simnet models the hardware substrate of a multi-core parallel
// machine for the discrete-event MPI simulator: the placement of logical
// ranks onto nodes and cores, the per-node (or per-core-group) shared
// memory bus, and the raw LogGP-timed message segments.
//
// The design follows paper Sections 3 and 4.3: an uncontended message
// follows the LogGP equations of Table 1 exactly, while every off-node DMA
// and every on-chip large-message DMA must pass through the owning node's
// shared bus, which is a FCFS resource. Contention therefore appears as
// emergent queueing delay rather than the model's closed-form I terms,
// letting experiments quantify the abstraction error of Table 6.
package simnet

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/grid"
	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/topo"
)

// Placement maps a logical rank to its node and to the bus group within
// that node.
type Placement func(rank int) (node, busGroup int)

// GridPlacement places the ranks of a 2-D wavefront decomposition onto a
// machine so that each node's cores form a Cx × Cy rectangle of the
// logical processor grid (paper Section 4.3). Bus groups within a node
// split the rectangle row-wise.
func GridPlacement(dec grid.Decomposition, m machine.Machine) Placement {
	nodesX := ceilDiv(dec.N, m.Cx)
	coresPerBus := m.CoresPerBus()
	return func(rank int) (node, busGroup int) {
		c := dec.CoordOf(rank)
		nodeX := (c.I - 1) / m.Cx
		nodeY := (c.J - 1) / m.Cy
		node = nodeY*nodesX + nodeX
		ci := (c.I - 1) % m.Cx
		cj := (c.J - 1) % m.Cy
		coreIdx := cj*m.Cx + ci
		busGroup = coreIdx / coresPerBus
		return node, busGroup
	}
}

// LinearPlacement packs ranks onto nodes in linear order: ranks
// [k·C, (k+1)·C) share node k. It is used by microbenchmarks such as
// ping-pong where no 2-D structure exists.
func LinearPlacement(m machine.Machine) Placement {
	coresPerBus := m.CoresPerBus()
	return func(rank int) (node, busGroup int) {
		node = rank / m.CoresPerNode
		core := rank % m.CoresPerNode
		return node, core / coresPerBus
	}
}

// SpreadPlacement places every rank on its own node (one core per node,
// Section 4.2's model baseline).
func SpreadPlacement() Placement {
	return func(rank int) (node, busGroup int) { return rank, 0 }
}

// Topology is the instantiated hardware substrate for a fixed rank count.
//
// Params is frozen at NewTopology: hot-path costs (BusOccupancy) are
// precomputed from it, so mutating the field afterwards is not supported —
// build a new Topology instead.
type Topology struct {
	Params  logp.Params
	ranks   int
	occBase float64 // Odma(), precomputed: BusOccupancy is hot-path
	occGdma float64 // Params.Gdma, precomputed alongside occBase
	nodeOf  []int32
	busOf   []int32 // global bus index
	buses   []des.Resource
	ic      *topo.Interconnect // nil: flat wire between nodes (paper model)
}

// NewTopology resolves a placement for the given number of ranks. Buses are
// numbered in the order their first rank appears.
func NewTopology(p logp.Params, ranks int, place Placement) *Topology {
	if ranks <= 0 {
		panic(fmt.Sprintf("simnet: invalid rank count %d", ranks))
	}
	t := &Topology{
		Params:  p,
		ranks:   ranks,
		occBase: p.Odma(),
		occGdma: p.Gdma,
		nodeOf:  make([]int32, ranks),
		busOf:   make([]int32, ranks),
	}
	// busOf holds each rank's bus group until the ids are known.
	nodes, groups := 0, 0
	for r := 0; r < ranks; r++ {
		node, bus := place(r)
		if node < 0 || bus < 0 {
			panic(fmt.Sprintf("simnet: placement puts rank %d on node %d, bus group %d", r, node, bus))
		}
		t.nodeOf[r], t.busOf[r] = int32(node), int32(bus)
		nodes, groups = max(nodes, node+1), max(groups, bus+1)
	}
	id := make([]int32, nodes*groups) // (node, bus group) → bus id + 1
	buses := int32(0)
	for r := range t.busOf {
		k := int(t.nodeOf[r])*groups + int(t.busOf[r])
		if id[k] == 0 {
			buses++
			id[k] = buses
		}
		t.busOf[r] = id[k] - 1
	}
	t.buses = make([]des.Resource, buses)
	return t
}

// NewMachineTopology builds the complete hardware substrate of a machine
// for a grid decomposition: rank placement onto its nodes and buses plus
// its inter-node interconnect, if any. Every simulation surface that takes
// a machine.Machine should construct its topology here — sites that call
// NewTopology directly bypass the machine's interconnect spec.
func NewMachineTopology(m machine.Machine, dec grid.Decomposition) (*Topology, error) {
	t := NewTopology(m.Params, dec.P(), GridPlacement(dec, m))
	if err := t.AttachInterconnect(m.Interconnect); err != nil {
		return nil, err
	}
	return t, nil
}

// AttachInterconnect instantiates an inter-node link fabric for the
// topology's node count and routes every off-node message segment across it
// (see AcquireLinks). The bus-only spec (topo.Spec{}) is a no-op, keeping
// the flat-wire behaviour bit-identical.
func (t *Topology) AttachInterconnect(spec topo.Spec) error {
	if spec.Kind == topo.Bus {
		t.ic = nil
		return nil
	}
	nodes := 0
	for _, n := range t.nodeOf {
		if int(n) >= nodes {
			nodes = int(n) + 1
		}
	}
	ic, err := topo.New(spec, nodes, t.Params.G)
	if err != nil {
		return err
	}
	t.ic = ic
	return nil
}

// Interconnect returns the attached link fabric, or nil for the flat-wire
// network.
func (t *Topology) Interconnect() *topo.Interconnect { return t.ic }

// Ranks returns the number of ranks in the topology.
func (t *Topology) Ranks() int { return t.ranks }

// NodeOf returns the node hosting rank r.
func (t *Topology) NodeOf(r int) int { return int(t.nodeOf[r]) }

// SameNode reports whether ranks a and b are cores of the same node, in
// which case the on-chip communication model of Table 1(b) applies.
func (t *Topology) SameNode(a, b int) bool { return t.nodeOf[a] == t.nodeOf[b] }

// Path returns the communication path between two ranks.
func (t *Topology) Path(a, b int) logp.Path {
	if t.SameNode(a, b) {
		return logp.OnChip
	}
	return logp.OffNode
}

// BusOccupancy returns the bus holding time of one DMA of the given message
// size: odma + size × Gdma, the paper's per-interference cost I (Table 6).
func (t *Topology) BusOccupancy(size int) float64 {
	return t.occBase + float64(size)*t.occGdma
}

// AcquireBus reserves rank r's shared bus at virtual time now for one DMA
// of the given size and returns the queueing delay experienced. Uncontended
// acquisitions return zero: the nominal DMA cost is already inside the
// LogGP per-message equations, so only excess waiting is added to message
// timelines.
func (t *Topology) AcquireBus(r int, now float64, size int) (wait float64) {
	return t.buses[t.busOf[r]].Acquire(now, t.BusOccupancy(size))
}

// AcquireLinks routes one off-node message segment of the given size from
// rank a's node to rank b's node across the interconnect at virtual time
// now, and returns the extra delay relative to the flat wire: link queueing
// plus per-hop latency beyond the first hop. Without an attached
// interconnect (or for same-node traffic) it returns exactly zero, so the
// caller's timing arithmetic is bit-identical to the flat-wire model.
func (t *Topology) AcquireLinks(a, b int, now float64, size int) float64 {
	if t.ic == nil {
		return 0
	}
	return t.ic.Acquire(int(t.nodeOf[a]), int(t.nodeOf[b]), now, size)
}

// AppendRoute appends the interconnect route from rank a's node to rank b's
// node (see topo.Interconnect.AppendRoute) and returns the extended slice;
// it appends nothing on the flat-wire network or for same-node ranks.
// Reserving the route with the interconnect's Reserve at virtual time now
// charges what AcquireLinks(a, b, now, size) would. It only reads the
// topology, so shards of a parallel run may call it concurrently.
func (t *Topology) AppendRoute(route []int32, a, b int) []int32 {
	return t.ic.AppendRoute(route, int(t.nodeOf[a]), int(t.nodeOf[b]))
}

// SetLinkTracer installs a per-reservation tracer on the attached
// interconnect; pass nil to disable. A no-op on the flat-wire network.
func (t *Topology) SetLinkTracer(fn topo.LinkTracer) { t.ic.SetLinkTracer(fn) }

// LinkStats aggregates contention counters over all interconnect links;
// all-zero for the flat-wire network.
func (t *Topology) LinkStats() (requests, queued uint64, busy, waited float64) {
	return t.ic.Stats()
}

// BusStats returns the busy and waiting time summed over all buses in bus
// order. A bus does not count its requests: AcquireBus returns each wait,
// and the simulator tallies requests and queued requests per shard, since
// the shards of a parallel run acquire their own buses concurrently.
func (t *Topology) BusStats() (busy, waited float64) {
	for i := range t.buses {
		b, w := t.buses[i].Stats()
		busy += b
		waited += w
	}
	return busy, waited
}

// Lookahead returns the minimum virtual-time distance any interaction
// between ranks of distinct nodes travels — the conservative-PDES lookahead
// for shard partitions aligned on node boundaries. Every off-node event
// chain in the LogGP protocol (eager flight, RTS, CTS, rendezvous data)
// carries at least one +L wire-latency term, and bus or link queueing only
// adds delay on top, so the wire latency L is a sound static bound. A zero
// L offers no lookahead; callers must fall back to serial execution.
func (t *Topology) Lookahead() float64 { return t.Params.L }

func ceilDiv(a, b int) int { return (a + b - 1) / b }
