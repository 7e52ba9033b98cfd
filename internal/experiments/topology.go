// Topology experiment: the paper's Table 6 quantifies the abstraction
// error of modelling node-internal contention with a closed form; this
// driver asks the same question about the off-node network. The analytic
// model assumes an uncontended flat wire (o + size×G + L per message,
// Section 3.1) — here it is held fixed while the simulator routes every
// off-node DMA over explicit torus or fat-tree links (internal/topo), so
// the error column isolates what the flat-wire abstraction hides.
package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/stats"
	"repro/internal/topo"
)

func init() {
	Register("topology", func(quick bool) (Table, error) { return Topology(quick) })
}

// TopologyPoint compares the flat-wire model against the simulator on one
// interconnect at one rank count.
type TopologyPoint struct {
	Spec      topo.Spec
	P         int
	Model     float64 // µs, uncontended LogGP prediction
	Simulated float64 // µs, with routed link contention
	LinkWait  float64 // total link queueing delay, µs
	LinkHops  uint64  // link acquisitions (hops crossed by all messages)
	MaxUtil   float64 // hottest link's busy/makespan ratio (0 on the flat wire)
}

// TopologyData sweeps interconnect specs × rank counts for Sweep3D on the
// grid, one XT4 machine with the given cores per node per fabric. Model
// and simulator compare one iteration.
func TopologyData(g grid.Grid, cores int, specs []topo.Spec, ranks []int) ([]TopologyPoint, error) {
	var machines []config.MachineSpec
	for i := range specs {
		machines = append(machines, config.MachineSpec{Preset: "xt4", CoresPerNode: cores, Interconnect: &specs[i]})
	}
	sims, err := simulate(sweep3DSpec("topology", g, ranks, machines...))
	if err != nil {
		return nil, err
	}
	out := make([]TopologyPoint, len(sims))
	for i, s := range sims {
		out[i] = TopologyPoint{
			Spec:      s.Model.Machine.Interconnect,
			P:         s.Report.P,
			Model:     s.Report.Total,
			Simulated: s.Result.Time,
			LinkWait:  s.Result.LinkWait,
			LinkHops:  s.Result.LinkRequests,
			MaxUtil:   s.MaxLinkUtil,
		}
	}
	return out, nil
}

// Topology renders the off-node abstraction-error study.
func Topology(quick bool) (Table, error) {
	g := grid.Cube(24)
	ranks := []int{16, 64}
	if !quick {
		g = grid.Cube(32)
		ranks = []int{16, 64, 256}
	}
	specs := []topo.Spec{
		{}, // flat wire
		{Kind: topo.Torus2D},
		{Kind: topo.Torus3D},
		{Kind: topo.FatTree},
	}
	pts, err := TopologyData(g, 2, specs, ranks)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "topology",
		Title:   fmt.Sprintf("Off-node abstraction error: flat-wire model vs routed interconnects (Sweep3D %v, 2 cores/node)", g),
		Columns: []string{"topology", "P", "model(µs)", "simulated(µs)", "model err", "link hops", "link delay(µs)", "max link util"},
	}
	for _, pt := range pts {
		name := pt.Spec.String()
		maxUtil := "-"
		if pt.Spec.Kind == topo.Bus {
			name = "flat wire"
		} else {
			maxUtil = fmt.Sprintf("%.2f%%", 100*pt.MaxUtil)
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", pt.P),
			f(pt.Model), f(pt.Simulated),
			pct(stats.SignedRelErr(pt.Model, pt.Simulated)),
			fmt.Sprintf("%d", pt.LinkHops), f(pt.LinkWait), maxUtil,
		})
	}
	t.Notes = append(t.Notes,
		"the model column is identical across topologies by construction (uncontended LogGP); the simulated column moves with per-link queueing and per-hop latency",
		"wavefront traffic is nearest-neighbour, so the flat-wire abstraction holds well until rank counts push many messages through the same links")
	return t, nil
}
