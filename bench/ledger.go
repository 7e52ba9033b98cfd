package main

import (
	"io"
	"math/rand/v2"
	"time"

	"repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/grid"
	"repro/internal/machine"
)

// medianOf returns the median of five calls of f.
func medianOf(f func() float64) float64 {
	xs := make([]float64, 5)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// perCall times f in batches of at least 20 ms (toy: 1 ms) and returns the
// median cost of one call in nanoseconds.
func perCall(toy bool, f func()) float64 {
	batch := 20 * time.Millisecond
	if toy {
		batch = time.Millisecond
	}
	return medianOf(func() float64 {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < batch {
			f()
			n++
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	})
}

// ledger measures the layers whose cost does not depend on the workload,
// at the sizes the workloads reach: the event queue at the pending counts
// of the campaign (256), the sharded LU run (2048 per shard) and the large
// Sweep3D run (4096); the model at three machine sizes; and the campaign
// layer's expansion, content keys and JSONL encoding. Every traced run
// reports it, so these numbers are never zero.
func ledger(toy bool) map[string]float64 {
	l := map[string]float64{
		"des.hold_ns.256":      holdNS(256, false, toy),
		"des.hold_ns.4096":     holdNS(4096, false, toy),
		"des.hold_pri_ns.2048": holdNS(2048, true, toy),
	}
	// Every P below decomposes the grid, so EvaluateP and Flagship's
	// Expand (checked once more below) cannot fail inside the timed calls.
	bm := apps.Sweep3D(grid.Cube(1000), 2)
	mo := core.New(bm.App, machine.XT4())
	for _, p := range []struct {
		name string
		p    int
	}{{"core.evaluate_us.1024", 1024}, {"core.evaluate_us.16384", 16384}, {"core.evaluate_us.131072", 131072}} {
		l[p.name] = perCall(toy, func() { mo.EvaluateP(p.p) }) / 1e3
	}

	spec := campaign.Flagship()
	l["campaign.expand_ms"] = perCall(toy, func() { spec.Expand() }) / 1e6
	runs, err := spec.Expand()
	if err != nil {
		return l
	}
	var scratch []byte
	i := 0
	l["campaign.runkey_ns"] = perCall(toy, func() {
		_, scratch = runs[i%len(runs)].ContentKey(campaign.KeyMode{}, scratch)
		i++
	})
	eng, err := campaign.NewEngine(campaign.Config{Workers: workers})
	if err != nil {
		return l
	}
	example, err := campaign.Example().Expand()
	if err != nil {
		return l
	}
	rows, err := eng.Execute(example)
	if err != nil {
		return l
	}
	l["campaign.jsonl_us_per_row"] = perCall(toy, func() { campaign.WriteJSONL(io.Discard, rows) }) / 1e3 / float64(len(rows))
	return l
}

// holdNS measures the classic hold model on a zero-value des.Engine: n
// events pending, each step pops the earliest and its handler schedules a
// successor an exponentially distributed time later. It returns ns per
// pop+push pair; pri selects the canonical (AtPri) order.
func holdNS(n int, pri bool, toy bool) float64 {
	rng := rand.New(rand.NewPCG(1, uint64(n)))
	incs := make([]float64, 4096)
	for i := range incs {
		incs[i] = rng.ExpFloat64()
	}
	var e des.Engine
	k := 0
	schedule := func(t float64) {
		k++
		if pri {
			e.AtPri(t, uint64(k&(1<<20-1)), 1, 0, 0)
		} else {
			e.AtKind(t, 1, 0, 0)
		}
	}
	e.SetHandler(func(ev des.Event) { schedule(ev.Time + incs[k&4095]) })
	for i := 0; i < n; i++ {
		schedule(incs[i&4095])
	}
	steps := 1 << 20
	if toy {
		steps = 1 << 12
	}
	return medianOf(func() float64 {
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			e.Step()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(steps)
	})
}
