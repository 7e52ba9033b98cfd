// Wg calibration: the plug-and-play model takes the per-cell computation
// time Wg as a measured input (paper Table 3). CalibrateTransportWg
// measures it from the transport kernel on the host machine.
package sweep

import (
	"time"

	"repro/internal/grid"
)

// CalibrateTransportWg measures the host's per-cell computation time (all
// angles, one octant visit) of the transport kernel in µs, by timing
// repeated sequential octant sweeps over a small grid.
func CalibrateTransportWg(angles int, repeats int) float64 {
	g := grid.NewGrid(32, 32, 32)
	p := NewTransportProblem(g, angles)
	octs := Octants([]grid.Corner{grid.NW, grid.SE})
	// Warm up caches and the scheduler.
	p.SolveSequential(octs)
	start := time.Now()
	for r := 0; r < repeats; r++ {
		p.SolveSequential(octs)
	}
	elapsed := time.Since(start).Seconds() * 1e6 // µs
	visits := float64(repeats) * float64(g.Cells()) * float64(len(octs))
	return elapsed / visits
}
