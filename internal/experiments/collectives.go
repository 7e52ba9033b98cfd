// Collectives experiment: the abstraction-error question of paper Table 6
// asked of collective algorithms. Each simulated algorithm — binomial-tree
// broadcast, ring and recursive-doubling all-reduce, dissemination barrier
// — executes its point-to-point constituents on the discrete-event
// simulator (buses and, on routed fabrics, interconnect links contended),
// while the closed-form LogGP model of internal/coll prices the same
// algorithm analytically. The error column isolates what the closed form's
// uncontended-round assumption hides. The study runs on the flat wire, a
// 2D torus and a fat-tree, and scans payload sizes on each fabric for the
// size from which the ring all-reduce overtakes recursive doubling.
package experiments

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/stats"
	"repro/internal/topo"
)

func init() {
	Register("collectives", func(quick bool) (Table, error) { return Collectives(quick) })
}

// CollectivePoint compares one collective algorithm's closed form against
// its simulation at one rank count.
type CollectivePoint struct {
	Collective coll.Collective
	P          int
	Model      float64 // µs, closed-form LogGP cost
	Simulated  float64 // µs, discrete-event completion time
	Messages   uint64  // point-to-point constituents injected
	BusWait    float64 // total bus queueing of the constituents, µs
	LinkWait   float64 // total link queueing of the constituents, µs
	WaitP50    float64 // median receive wait, µs (log2-bucket representative)
	WaitP99    float64 // 99th-percentile receive wait, µs
}

// CollectivesData sweeps collectives × rank counts on one machine with a
// reused simulator.
func CollectivesData(m machine.Machine, cs []coll.Collective, ranks []int) ([]CollectivePoint, error) {
	r := coll.Runner{Obs: &obs.Recorder{Hist: true}}
	var out []CollectivePoint
	for _, c := range cs {
		for _, p := range ranks {
			r.Obs.Reset() // per-run percentiles, not cumulative
			res, err := r.Run(m, p, c)
			if err != nil {
				return nil, err
			}
			out = append(out, CollectivePoint{
				Collective: c,
				P:          p,
				Model:      c.Model(m, p),
				Simulated:  res.Time,
				Messages:   res.Sends,
				BusWait:    res.BusWait,
				LinkWait:   res.LinkWait,
				WaitP50:    res.Hists.RecvWait.Quantile(0.5),
				WaitP99:    res.Hists.RecvWait.Quantile(0.99),
			})
		}
	}
	return out, nil
}

// Collectives renders the collective abstraction-error study on the flat
// wire, the 2D torus and the fat-tree, with one crossover note per fabric.
func Collectives(quick bool) (Table, error) {
	ranks, crossP := []int{8, 16}, 16
	if !quick {
		ranks, crossP = []int{16, 64, 256}, 64
	}
	base := machine.XT4()
	fabrics := []topo.Spec{
		{}, // flat wire
		{Kind: topo.Torus2D},
		{Kind: topo.FatTree},
	}
	cs := []coll.Collective{
		{Kind: coll.Bcast, Alg: simmpi.AlgBinomial, Bytes: 65536},
		{Kind: coll.Allreduce, Alg: simmpi.AlgRing, Bytes: 65536},
		{Kind: coll.Allreduce, Alg: simmpi.AlgRecDouble, Bytes: 65536},
		{Kind: coll.Allreduce, Alg: simmpi.AlgRing, Bytes: 8},
		{Kind: coll.Allreduce, Alg: simmpi.AlgRecDouble, Bytes: 8},
		{Kind: coll.Barrier},
	}
	var sizes []int
	for s := 8; s <= 1<<20; s *= 2 {
		sizes = append(sizes, s)
	}
	t := Table{
		ID:    "collectives",
		Title: fmt.Sprintf("Collective algorithms: closed-form LogGP vs simulated p2p constituents (%s)", base.Name),
		Columns: []string{"fabric", "collective", "P", "model(µs)", "simulated(µs)", "model err", "messages",
			"bus wait(µs)", "link wait(µs)", "wait p50(µs)", "wait p99(µs)"},
		Notes: []string{
			"the closed form prices rounds as uncontended LogGP exchanges plus a shared-bus interference term; skew between ranks and queueing beyond one round are what the error column measures",
			"ring pays 2(P−1) rounds of bytes/P chunks, recursive doubling log2(P) rounds of full payloads: small payloads favour recursive doubling, large ones the ring",
		},
	}
	for _, spec := range fabrics {
		m := base.WithInterconnect(spec)
		name := spec.String()
		if spec.Kind == topo.Bus {
			name = "flat wire"
		}
		pts, err := CollectivesData(m, cs, ranks)
		if err != nil {
			return Table{}, err
		}
		for _, pt := range pts {
			t.Rows = append(t.Rows, []string{
				name,
				pt.Collective.String(),
				fmt.Sprintf("%d", pt.P),
				f(pt.Model), f(pt.Simulated),
				pct(stats.SignedRelErr(pt.Model, pt.Simulated)),
				fmt.Sprintf("%d", pt.Messages), f(pt.BusWait), f(pt.LinkWait),
				f(pt.WaitP50), f(pt.WaitP99),
			})
		}
		scan, err := coll.CrossoverScan(m, crossP, sizes)
		if err != nil {
			return Table{}, err
		}
		t.Notes = append(t.Notes, crossoverNote(name, crossP, scan))
	}
	return t, nil
}

// crossoverNote names the payload from which the ring all-reduce is at
// least as fast as recursive doubling on one fabric.
func crossoverNote(fabric string, p int, scan []coll.CrossPoint) string {
	first, last := scan[0].Bytes, scan[len(scan)-1].Bytes
	cross := coll.Crossover(scan)
	for _, pt := range scan {
		if pt.Bytes == cross {
			return fmt.Sprintf("%s, P=%d: ring beats recursive doubling from %d B (ring %s µs vs %s µs; scan %d B–%d B, doubling)",
				fabric, p, cross, f(pt.Ring), f(pt.RecDouble), first, last)
		}
	}
	return fmt.Sprintf("%s, P=%d: recursive doubling beats ring at every payload from %d B to %d B",
		fabric, p, first, last)
}
