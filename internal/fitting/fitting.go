// Package fitting reproduces the paper's derivation of the Cray XT4 LogGP
// parameters (Section 3, Table 2, Figure 3): it runs ping-pong
// microbenchmarks on the simulated platform, fits the per-byte transmission
// costs from the slopes of the half-round-trip curves, and solves the
// Table 1 equations simultaneously for the overhead and latency parameters.
//
// Applied to the simulator, the pipeline recovers the injected Table 2
// constants, validating both the microbenchmark methodology and the
// protocol implementation.
package fitting

import (
	"fmt"

	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Sample is one ping-pong measurement: message size and half round-trip
// time in µs.
type Sample struct {
	Bytes int
	Time  float64
}

// PingPong runs a two-rank ping-pong of the given message size for rounds
// round trips on the machine and returns the half round-trip time. The two
// ranks are placed on different nodes for path == logp.OffNode and on the
// same node for path == logp.OnChip (paper Figures 3(a) and 3(b)).
func PingPong(mach machine.Machine, path logp.Path, bytes, rounds int) (float64, error) {
	if rounds <= 0 || bytes <= 0 {
		return 0, fmt.Errorf("fitting: invalid ping-pong configuration bytes=%d rounds=%d", bytes, rounds)
	}
	var place simnet.Placement
	if path == logp.OnChip {
		if mach.CoresPerNode < 2 {
			return 0, fmt.Errorf("fitting: on-chip ping-pong needs ≥2 cores per node on %s", mach.Name)
		}
		place = simnet.LinearPlacement(mach)
	} else {
		place = simnet.SpreadPlacement()
	}
	topo := simnet.NewTopology(mach.Params, 2, place)

	ops0 := make([]simmpi.Op, 0, 2*rounds)
	ops1 := make([]simmpi.Op, 0, 2*rounds)
	for i := 0; i < rounds; i++ {
		ops0 = append(ops0, simmpi.Send(1, bytes), simmpi.Recv(1))
		ops1 = append(ops1, simmpi.Recv(0), simmpi.Send(0, bytes))
	}
	sim := simmpi.New(topo)
	sim.SetProgram(0, simmpi.Ops(ops0...))
	sim.SetProgram(1, simmpi.Ops(ops1...))
	res, err := sim.Run()
	if err != nil {
		return 0, err
	}
	return res.Time / float64(2*rounds), nil
}

// Sweep measures ping-pong times over the given message sizes.
func Sweep(mach machine.Machine, path logp.Path, sizes []int, rounds int) ([]Sample, error) {
	out := make([]Sample, 0, len(sizes))
	for _, sz := range sizes {
		t, err := PingPong(mach, path, sz, rounds)
		if err != nil {
			return nil, err
		}
		out = append(out, Sample{Bytes: sz, Time: t})
	}
	return out, nil
}

// DefaultSizes returns the message-size sweep of paper Figure 3:
// sizes from 64 bytes to 12 KB spanning the 1024-byte protocol switch.
func DefaultSizes() []int {
	return []int{
		64, 128, 256, 512, 768, 1024,
		1025, 1536, 2048, 3072, 4096, 6144, 8192, 10240, 12288,
	}
}

// Derived holds platform parameters recovered from ping-pong measurements,
// mirroring paper Table 2.
type Derived struct {
	G, L, O            float64 // off-node
	Gcopy, Gdma        float64 // on-chip per-byte costs
	Ocopy, Odma, Ochip float64 // on-chip overheads; Ochip = Ocopy + Odma
}

// FitOffNode derives G, o and L from off-node ping-pong samples using the
// paper's method: G is the slope of the sub-1KB segment (equal to the
// above-1KB slope), then equations (1) and (2) are solved simultaneously at
// one representative size on each side of the handshake threshold.
func FitOffNode(samples []Sample) (Derived, error) {
	small, large := split(samples)
	if len(small) < 2 || len(large) < 1 {
		return Derived{}, fmt.Errorf("fitting: need samples on both sides of the %d-byte threshold", logp.EagerThreshold)
	}
	_, g := linfit(small)

	// Equation (1) at size s1: T1 = 2o + L + s1·G  ⇒  A ≡ 2o + L.
	// Equation (2) at size s2 (with oh ≈ 0, h = 2L):
	//   T2 = 3o + 3L + s2·G  ⇒  B ≡ 3o + 3L.
	s1 := small[len(small)-1]
	s2 := large[len(large)-1]
	A := s1.Time - float64(s1.Bytes)*g
	B := s2.Time - float64(s2.Bytes)*g
	o := A - B/3
	l := 2*B/3 - A

	return Derived{G: g, O: o, L: l}, nil
}

// FitOnChip derives Gcopy, Gdma, ocopy and odma from on-chip ping-pong
// samples: the two slopes come from the two segments, then equations (5)
// and (6) are solved simultaneously (paper Section 3.2).
func FitOnChip(samples []Sample) (Derived, error) {
	small, large := split(samples)
	if len(small) < 2 || len(large) < 2 {
		return Derived{}, fmt.Errorf("fitting: need ≥2 samples on both sides of the %d-byte threshold", logp.EagerThreshold)
	}
	_, gcopy := linfit(small)
	_, gdma := linfit(large)

	// Equation (5): T5 = 2·ocopy + s·Gcopy.
	s5 := small[len(small)-1]
	ocopy := (s5.Time - float64(s5.Bytes)*gcopy) / 2

	// Equation (6): T6 = (ocopy + odma) + s·Gdma + ocopy.
	s6 := large[len(large)-1]
	odma := s6.Time - float64(s6.Bytes)*gdma - 2*ocopy

	return Derived{
		Gcopy: gcopy,
		Gdma:  gdma,
		Ocopy: ocopy,
		Odma:  odma,
		Ochip: ocopy + odma,
	}, nil
}

// DeriveTable2 runs the complete Table 2 derivation on a machine: off-node
// and on-chip sweeps followed by both fits.
func DeriveTable2(mach machine.Machine) (Derived, error) {
	off, err := Sweep(mach, logp.OffNode, DefaultSizes(), 4)
	if err != nil {
		return Derived{}, err
	}
	on, err := Sweep(mach, logp.OnChip, DefaultSizes(), 4)
	if err != nil {
		return Derived{}, err
	}
	dOff, err := FitOffNode(off)
	if err != nil {
		return Derived{}, err
	}
	dOn, err := FitOnChip(on)
	if err != nil {
		return Derived{}, err
	}
	dOff.Gcopy, dOff.Gdma = dOn.Gcopy, dOn.Gdma
	dOff.Ocopy, dOff.Odma, dOff.Ochip = dOn.Ocopy, dOn.Odma, dOn.Ochip
	return dOff, nil
}

// ModelCurve returns the Table 1 model predictions at the sample sizes, for
// overlaying model and "measurement" as in Figure 3.
func ModelCurve(p logp.Params, path logp.Path, sizes []int) []Sample {
	out := make([]Sample, 0, len(sizes))
	for _, sz := range sizes {
		out = append(out, Sample{Bytes: sz, Time: p.TotalComm(path, sz)})
	}
	return out
}

func split(samples []Sample) (small, large []Sample) {
	for _, s := range samples {
		if s.Bytes <= logp.EagerThreshold {
			small = append(small, s)
		} else {
			large = append(large, s)
		}
	}
	return small, large
}

func linfit(samples []Sample) (a, b float64) {
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = float64(s.Bytes)
		ys[i] = s.Time
	}
	return stats.LinearFit(xs, ys)
}
