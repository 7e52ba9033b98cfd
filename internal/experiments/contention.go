// Contention experiment: the paper claims a "more precise model of
// message contention in the multicore nodes than previous work" (Table 6:
// a fixed interference term I = odma + size×Gdma per interfering DMA).
// In the simulator, contention is emergent — DMAs queue FCFS on each
// node's shared bus — so this driver quantifies how well the closed form
// tracks the emergent queueing across core counts.
package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/stats"
)

func init() {
	Register("contention", func(quick bool) (Table, error) { return Contention(quick) })
}

// ContentionPoint compares model and simulator for one cores-per-node
// configuration.
type ContentionPoint struct {
	Cores        int
	ModelTotal   float64 // µs, with Table 6 terms
	NoContention float64 // µs, contention terms disabled
	Simulated    float64 // µs, emergent queueing
	BusWait      float64 // total simulated bus queueing delay, µs
	BusQueued    uint64  // number of delayed DMAs
}

// ContentionData sweeps cores per node at a fixed total core count, one
// XT4 machine per core count.
func ContentionData(g grid.Grid, p int, coreCounts []int, iters int) ([]ContentionPoint, error) {
	var machines []config.MachineSpec
	for _, cores := range coreCounts {
		machines = append(machines, config.MachineSpec{Preset: "xt4", CoresPerNode: cores})
	}
	spec := sweep3DSpec("contention", g, []int{p}, machines...)
	spec.Iterations = iters
	sims, err := simulate(spec)
	if err != nil {
		return nil, err
	}
	out := make([]ContentionPoint, len(sims))
	for i, s := range sims {
		noCont := s.Model
		noCont.Opts.NoContention = true
		without, err := noCont.EvaluateP(p)
		if err != nil {
			return nil, err
		}
		out[i] = ContentionPoint{
			Cores:        s.Model.Machine.CoresPerNode,
			ModelTotal:   s.Report.Total,
			NoContention: without.Total,
			Simulated:    s.Result.Time,
			BusWait:      s.Result.BusWait,
			BusQueued:    s.Result.BusQueued,
		}
	}
	return out, nil
}

// Contention renders the emergent-vs-closed-form comparison.
func Contention(quick bool) (Table, error) {
	g := grid.Cube(48)
	p := 64
	iters := 1
	if !quick {
		g = grid.Cube(64)
		p = 256
	}
	pts, err := ContentionData(g, p, []int{1, 2, 4, 8}, iters)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID: "contention",
		Title: fmt.Sprintf("Shared-bus contention: Table 6 closed form vs emergent queueing (Sweep3D %v, P=%d)",
			g, p),
		Columns: []string{"cores/node", "model(µs)", "model no-cont(µs)", "simulated(µs)", "model err", "bus waits", "bus delay(µs)"},
	}
	for _, pt := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pt.Cores),
			f(pt.ModelTotal), f(pt.NoContention), f(pt.Simulated),
			pct(stats.SignedRelErr(pt.ModelTotal, pt.Simulated)),
			fmt.Sprintf("%d", pt.BusQueued), f(pt.BusWait),
		})
	}
	t.Notes = append(t.Notes,
		"the closed form charges every tile the worst-case interference; emergent queueing overlaps some of it, so the model errs high as cores/bus grow")
	return t, nil
}
