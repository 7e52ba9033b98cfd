// Package coll models MPI collective operations two ways and measures the
// gap between them. The simulated side executes real collective algorithms
// — binomial-tree broadcast, ring and recursive-doubling all-reduce,
// dissemination barrier — as point-to-point message schedules on the
// discrete-event simulator (internal/simmpi), where every constituent
// message pays LogGP costs, queues on node buses and routes over
// interconnect links (internal/simnet, internal/topo). The analytic side
// provides a closed-form LogGP cost per algorithm in the style of the
// paper's all-reduce model (equation (9)), so the abstraction error of the
// closed form is measurable per collective, per topology and per message
// size (the "collectives" experiment driver).
//
// The algorithm schedules themselves live in internal/simmpi (collops.go)
// so the simulator can expand collective ops in its allocation-free hot
// path; this package names them, prices them analytically, and drives
// them standalone.
package coll

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

// Kind identifies a collective operation.
type Kind uint8

// Collective operation kinds.
const (
	Bcast Kind = iota
	Allreduce
	Barrier
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Bcast:
		return "bcast"
	case Allreduce:
		return "allreduce"
	case Barrier:
		return "barrier"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// algNames maps algorithms to their JSON/CLI names.
var algNames = map[simmpi.CollAlg]string{
	simmpi.AlgAuto:          "auto",
	simmpi.AlgBinomial:      "binomial",
	simmpi.AlgRing:          "ring",
	simmpi.AlgRecDouble:     "recdouble",
	simmpi.AlgDissemination: "dissemination",
}

// AlgName renders a collective algorithm's canonical name.
func AlgName(a simmpi.CollAlg) string {
	if name, ok := algNames[a]; ok {
		return name
	}
	return fmt.Sprintf("CollAlg(%d)", uint8(a))
}

// ParseAlg resolves an algorithm name: "auto", "binomial", "ring",
// "recdouble" or "dissemination" (case-insensitive).
func ParseAlg(s string) (simmpi.CollAlg, error) {
	want := strings.ToLower(strings.TrimSpace(s))
	for a, name := range algNames {
		if name == want {
			return a, nil
		}
	}
	return simmpi.AlgAuto, fmt.Errorf(
		"coll: unknown collective algorithm %q (want auto, binomial, ring, recdouble or dissemination)", s)
}

// Collective describes one collective operation instance.
type Collective struct {
	Kind  Kind
	Alg   simmpi.CollAlg
	Root  int // broadcast root rank
	Bytes int // payload size; fixed at 8 for barriers
}

// String renders the collective compactly, e.g. "allreduce/ring/4096B".
func (c Collective) String() string {
	switch c.Kind {
	case Barrier:
		return "barrier/" + AlgName(c.effAlg())
	default:
		return fmt.Sprintf("%s/%s/%dB", c.Kind, AlgName(c.effAlg()), c.Bytes)
	}
}

// effAlg resolves AlgAuto to the kind's canonical algorithm.
func (c Collective) effAlg() simmpi.CollAlg {
	if c.Alg != simmpi.AlgAuto {
		return c.Alg
	}
	switch c.Kind {
	case Bcast:
		return simmpi.AlgBinomial
	case Barrier:
		return simmpi.AlgDissemination
	}
	return simmpi.AlgAuto
}

// Validate reports configuration errors for an instance over the given
// number of ranks.
func (c Collective) Validate(ranks int) error {
	if ranks <= 0 {
		return fmt.Errorf("coll: invalid rank count %d", ranks)
	}
	switch c.Kind {
	case Bcast:
		if c.effAlg() != simmpi.AlgBinomial {
			return fmt.Errorf("coll: bcast cannot use algorithm %s", AlgName(c.Alg))
		}
		if c.Root < 0 || c.Root >= ranks {
			return fmt.Errorf("coll: bcast root %d outside %d ranks", c.Root, ranks)
		}
		if c.Bytes <= 0 {
			return fmt.Errorf("coll: bcast of %d bytes", c.Bytes)
		}
	case Allreduce:
		if !simmpi.ValidAllReduceAlg(c.effAlg()) {
			return fmt.Errorf("coll: all-reduce cannot use algorithm %s", AlgName(c.Alg))
		}
		if c.Bytes <= 0 {
			return fmt.Errorf("coll: all-reduce of %d bytes", c.Bytes)
		}
		if c.Root != 0 {
			return fmt.Errorf("coll: all-reduce takes no root")
		}
	case Barrier:
		if c.effAlg() != simmpi.AlgDissemination {
			return fmt.Errorf("coll: barrier cannot use algorithm %s", AlgName(c.Alg))
		}
		if c.Root != 0 {
			return fmt.Errorf("coll: barrier takes no root")
		}
	default:
		return fmt.Errorf("coll: unknown collective kind %d", uint8(c.Kind))
	}
	return nil
}

// Op returns the simulator operation executing this collective.
func (c Collective) Op() simmpi.Op {
	switch c.Kind {
	case Bcast:
		return simmpi.Bcast(c.Root, c.Bytes)
	case Barrier:
		return simmpi.Barrier()
	default:
		return simmpi.AllReduceAlg(c.Bytes, c.Alg)
	}
}

// Runner executes standalone collectives on a reusable simulator, so scans
// over many sizes and algorithms amortise the simulator's pools the same
// way campaign workers do.
type Runner struct {
	sim *simmpi.Sim
	// Obs, if non-nil, is attached to every Run as the simulator's
	// observability recorder. Call its Reset between runs if per-run
	// streams are wanted; histograms otherwise accumulate across runs.
	Obs *obs.Recorder
}

// Run simulates one instance of the collective over the given number of
// ranks packed linearly onto the machine's nodes (LinearPlacement), every
// rank entering the collective at virtual time zero. The machine's
// interconnect spec, if any, is honoured: off-node constituents route over
// contended links.
func (r *Runner) Run(m machine.Machine, ranks int, c Collective) (simmpi.Result, error) {
	if err := c.Validate(ranks); err != nil {
		return simmpi.Result{}, err
	}
	t := simnet.NewTopology(m.Params, ranks, simnet.LinearPlacement(m))
	if err := t.AttachInterconnect(m.Interconnect); err != nil {
		return simmpi.Result{}, err
	}
	opt := simmpi.Options{Obs: r.Obs}
	if r.sim == nil {
		sim, err := simmpi.NewWithOptions(t, opt)
		if err != nil {
			return simmpi.Result{}, err
		}
		r.sim = sim
	} else if err := r.sim.ResetWithOptions(t, opt); err != nil {
		return simmpi.Result{}, err
	}
	op := c.Op()
	for rank := 0; rank < ranks; rank++ {
		r.sim.SetProgram(rank, simmpi.Ops(op))
	}
	return r.sim.Run()
}

// Simulate runs one collective on a fresh simulator; see Runner.Run.
func Simulate(m machine.Machine, ranks int, c Collective) (simmpi.Result, error) {
	var r Runner
	return r.Run(m, ranks, c)
}

// CrossPoint is one message size of a ring vs recursive-doubling
// all-reduce comparison.
type CrossPoint struct {
	Bytes     int
	Ring      float64 // simulated completion time, µs
	RecDouble float64 // simulated completion time, µs
}

// CrossoverScan simulates both all-reduce algorithms at every message size
// on one machine and rank count. Sizes are simulated in the given order on
// one reused simulator.
func CrossoverScan(m machine.Machine, ranks int, sizes []int) ([]CrossPoint, error) {
	var r Runner
	out := make([]CrossPoint, 0, len(sizes))
	for _, size := range sizes {
		ring, err := r.Run(m, ranks, Collective{Kind: Allreduce, Alg: simmpi.AlgRing, Bytes: size})
		if err != nil {
			return nil, err
		}
		rd, err := r.Run(m, ranks, Collective{Kind: Allreduce, Alg: simmpi.AlgRecDouble, Bytes: size})
		if err != nil {
			return nil, err
		}
		out = append(out, CrossPoint{Bytes: size, Ring: ring.Time, RecDouble: rd.Time})
	}
	return out, nil
}

// Crossover returns the smallest scanned size at which the ring algorithm
// is at least as fast as recursive doubling, or -1 if recursive doubling
// wins everywhere. Ring trades more rounds for per-round chunks P times
// smaller, so it overtakes as the per-byte term starts to dominate.
func Crossover(pts []CrossPoint) int {
	for _, pt := range pts {
		if pt.Ring <= pt.RecDouble {
			return pt.Bytes
		}
	}
	return -1
}
