// Package baseline implements the previous-generation wavefront model the
// paper compares against: the Sundaram-Stukel & Vernon LogGP model of
// Sweep3D (PPoPP'99), reproduced in paper Table 4 (equations s1–s5). It is
// specific to Sweep3D's sweep structure and was developed for the IBM SP/2,
// including handshake back-propagation synchronization terms.
//
// It serves as a comparison baseline for the plug-and-play model in the
// experiments: the plug-and-play model reproduces its predictions where its
// assumptions hold, while also covering codes it cannot express.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/logp"
)

// Sweep3DConfig holds the inputs of the Table 4 model in its original
// parameterisation.
type Sweep3DConfig struct {
	// Grid is the problem size.
	Grid grid.Grid
	// N, M are the processor array dimensions (n columns × m rows).
	N, M int
	// WgAngle is the measured computation time per angle per cell, µs
	// (the Table 4 model's Wg; the plug-and-play model's Wg equals
	// WgAngle × MMO).
	WgAngle float64
	// MK is the tile height in cells, MMI the number of angles computed
	// before boundary values are sent, MMO the total angles per cell.
	MK, MMI, MMO int
	// Params are the platform LogGP parameters.
	Params logp.Params
	// SyncTerms includes the (m−1)L and (n−2)L handshake back-propagation
	// terms that were significant on the SP/2 (Table 4 equations s3, s4).
	SyncTerms bool
}

// Validate reports configuration errors.
func (c Sweep3DConfig) Validate() error {
	switch {
	case c.Grid.Nx <= 0 || c.Grid.Ny <= 0 || c.Grid.Nz <= 0:
		return fmt.Errorf("baseline: invalid grid %v", c.Grid)
	case c.N <= 1 || c.M <= 1:
		return fmt.Errorf("baseline: Table 4 model requires n, m > 1 (got %dx%d)", c.N, c.M)
	case !(c.WgAngle >= 0) || math.IsInf(c.WgAngle, 1): // NaN fails >= 0
		return fmt.Errorf("baseline: WgAngle = %v, want finite and non-negative", c.WgAngle)
	case c.MK <= 0 || c.MMI <= 0 || c.MMO <= 0 || c.MMO%c.MMI != 0:
		return fmt.Errorf("baseline: invalid angle blocking mk=%d mmi=%d mmo=%d", c.MK, c.MMI, c.MMO)
	}
	return nil
}

// Result is the Table 4 model output, in µs.
type Result struct {
	W        float64 // per-block work (s1)
	StartP1M float64 // pipeline fill to (1,m)
	StartPNM float64 // pipeline fill to (n,m)
	Time56   float64 // equation (s3)
	Time78   float64 // equation (s4)
	Total    float64 // equation (s5): one iteration, all 8 sweeps
}

// Evaluate computes the Table 4 model for one iteration of Sweep3D.
func Evaluate(c Sweep3DConfig) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	p := c.Params
	it := ceilDiv(c.Grid.Nx, c.N)
	jt := ceilDiv(c.Grid.Ny, c.M)
	kblocks := ceilDiv(c.Grid.Nz, c.MK)
	anglesFactor := float64(c.MMO) / float64(c.MMI)

	// (s1): W = Wg × mmi × mk × jt × it.
	w := c.WgAngle * float64(c.MMI) * float64(c.MK) * float64(jt) * float64(it)

	// Boundary message sizes for an mmi-angle, mk-cell block.
	sEW := 8 * c.MMI * c.MK * jt
	sNS := 8 * c.MMI * c.MK * it

	sendE := p.SendOffNode(sEW)
	recvW := p.ReceiveOffNode(sEW)
	recvN := p.ReceiveOffNode(sNS)

	// (s2): the plug-and-play model's StartP recurrence with every message
	// off-node (the SP/2 had single-core nodes) and the origin at 0.
	h := core.NewHops(c.N, c.M)
	totalE, totalS := p.TotalCommOffNode(sEW), p.TotalCommOffNode(sNS)
	for i := range h.TotalE {
		h.TotalE[i], h.SendE[i] = totalE, sendE
	}
	for j := range h.TotalS {
		h.TotalS[j], h.RecvN[j] = totalS, recvN
	}
	last := core.StartP(c.N, c.M, 0, w, h)
	s1m, sn1m, snm := last[1], last[c.N-1], last[c.N]

	sync3, sync4 := 0.0, 0.0
	if c.SyncTerms {
		sync3 = float64(c.M-1) * p.L
		sync4 = float64(c.M-1)*p.L + float64(c.N-2)*p.L
	}

	// (s3): time until the corner processor on the main diagonal finishes
	// its stack of tiles in the sweep.
	time56 := s1m + 2*(w+sendE+recvN+sync3)*float64(kblocks)*anglesFactor

	// (s4): time until the sweep completely finishes on processor (n,m).
	time78 := sn1m + 2*(w+sendE+recvW+recvN+sync4)*float64(kblocks)*anglesFactor +
		recvW + w

	// (s5): total per-iteration time across the 8 sweeps.
	total := 2 * (time56 + time78)

	return Result{
		W:        w,
		StartP1M: s1m,
		StartPNM: snm,
		Time56:   time56,
		Time78:   time78,
		Total:    total,
	}, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
