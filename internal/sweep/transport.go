// Package sweep implements a real, executable pipelined wavefront
// computation on 3-D grids: a discrete-ordinates particle transport kernel
// (Sweep3D/Chimaera-like). Its sequential solve is the reference, and its
// per-cell time calibrates the model's Wg input (paper Table 3 lists Wg as
// "measured"). The multi-group schedules of paper Section 5.5 run the same
// kernel on an m × n grid of goroutine workers exchanging boundary planes
// over channels — the shared-memory analogue of the MPI codes the paper
// models — and are verified against the sequential solve in the tests.
package sweep

import "repro/internal/grid"

// AngleCoef holds the upwind coefficients and quadrature weight of one
// discrete ordinate (angle).
type AngleCoef struct {
	Ax, Ay, Az float64 // upwind coupling coefficients, all positive
	Weight     float64 // quadrature weight for the scalar flux
}

// DefaultAngles returns a simple level-symmetric-like quadrature with the
// given number of angles.
func DefaultAngles(n int) []AngleCoef {
	angles := make([]AngleCoef, n)
	for i := range angles {
		f := float64(i+1) / float64(n+1)
		angles[i] = AngleCoef{
			Ax:     0.3 + 0.4*f,
			Ay:     0.7 - 0.4*f,
			Az:     0.5,
			Weight: 1 / float64(n),
		}
	}
	return angles
}

// Octant is one sweep direction through the 3-D grid: a corner of the 2-D
// processor array (x-y direction signs) plus a z direction.
type Octant struct {
	Corner grid.Corner
	ZUp    bool // true: sweep k = 0 → Nz−1; false: top-down
}

// Octants returns the octant sequence corresponding to a 2-D corner
// sequence, alternating the z direction as transport codes do for the
// paired octants that share a corner.
func Octants(corners []grid.Corner) []Octant {
	out := make([]Octant, len(corners))
	for i, c := range corners {
		out[i] = Octant{Corner: c, ZUp: i%2 == 0}
	}
	return out
}

// dirOf returns the x and y direction signs of a sweep from the given
// corner: a sweep originating at NW = (1,1) travels in +x and +y.
func dirOf(c grid.Corner) (xUp, yUp bool) {
	switch c {
	case grid.NW:
		return true, true
	case grid.NE:
		return false, true
	case grid.SW:
		return true, false
	default: // SE
		return false, false
	}
}

// loopRange returns the iteration bounds over [lo, hi) for an ascending or
// descending traversal, for use as: for v := start; v != end; v += step.
func loopRange(lo, hi int, up bool) (start, end, step int) {
	if up {
		return lo, hi, 1
	}
	return hi - 1, lo - 1, -1
}

// TransportProblem is a single-group discrete-ordinates transport sweep
// problem on a regular orthogonal grid: for each octant and angle, the
// angular flux satisfies the upwind relation
//
//	psi[c] = (source[c] + ax·psi_x + ay·psi_y + az·psi_z) / (sigma + ax + ay + az)
//
// where psi_x, psi_y, psi_z are the upwind neighbour values (zero inflow at
// grid boundaries). The scalar flux accumulates weight·psi over angles and
// octants.
type TransportProblem struct {
	Grid   grid.Grid
	Angles []AngleCoef
	Sigma  float64
	Source []float64 // len Nx·Ny·Nz, row-major [k][j][i]
}

// NewTransportProblem builds a transport problem with a deterministic
// synthetic source field.
func NewTransportProblem(g grid.Grid, angles int) *TransportProblem {
	p := &TransportProblem{
		Grid:   g,
		Angles: DefaultAngles(angles),
		Sigma:  1.0,
		Source: make([]float64, g.Cells()),
	}
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				// A smooth, asymmetric source so that sweep-order bugs
				// change the answer.
				p.Source[p.idx(i, j, k)] = 1 + 0.01*float64(i) + 0.02*float64(j) + 0.005*float64(k)
			}
		}
	}
	return p
}

func (p *TransportProblem) idx(i, j, k int) int {
	return (k*p.Grid.Ny+j)*p.Grid.Nx + i
}

// SolveSequential performs the octant sweeps in order and returns the
// scalar flux field. It is the reference implementation.
func (p *TransportProblem) SolveSequential(octants []Octant) []float64 {
	g := p.Grid
	flux := make([]float64, g.Cells())
	psi := make([]float64, g.Cells())
	for _, oct := range octants {
		xUp, yUp := dirOf(oct.Corner)
		for a := range p.Angles {
			ang := p.Angles[a]
			den := p.Sigma + ang.Ax + ang.Ay + ang.Az
			ks, ke, kd := loopRange(0, g.Nz, oct.ZUp)
			js, je, jd := loopRange(0, g.Ny, yUp)
			is, ie, id := loopRange(0, g.Nx, xUp)
			for k := ks; k != ke; k += kd {
				for j := js; j != je; j += jd {
					for i := is; i != ie; i += id {
						var px, py, pz float64
						if iu := i - id; iu >= 0 && iu < g.Nx {
							px = psi[p.idx(iu, j, k)]
						}
						if ju := j - jd; ju >= 0 && ju < g.Ny {
							py = psi[p.idx(i, ju, k)]
						}
						if ku := k - kd; ku >= 0 && ku < g.Nz {
							pz = psi[p.idx(i, j, ku)]
						}
						v := (p.Source[p.idx(i, j, k)] + ang.Ax*px + ang.Ay*py + ang.Az*pz) / den
						psi[p.idx(i, j, k)] = v
						flux[p.idx(i, j, k)] += ang.Weight * v
					}
				}
			}
		}
	}
	return flux
}

// block is one worker's owned sub-domain.
type block struct {
	x0, x1, y0, y1 int // owned columns [x0,x1) and rows [y0,y1)
}

func (b block) nx() int { return b.x1 - b.x0 }
func (b block) ny() int { return b.y1 - b.y0 }

// blocks partitions the grid over the decomposition; remainders are spread
// so every worker owns a contiguous block.
func blocks(dec grid.Decomposition) []block {
	g := dec.Grid
	out := make([]block, dec.P())
	for r := range out {
		c := dec.CoordOf(r)
		out[r] = block{
			x0: (c.I - 1) * g.Nx / dec.N,
			x1: c.I * g.Nx / dec.N,
			y0: (c.J - 1) * g.Ny / dec.M,
			y1: c.J * g.Ny / dec.M,
		}
	}
	return out
}

// computeTile processes one tile of one octant for all angles. Boundary
// plane layouts: x planes are [angle][k-local][j-local], y planes are
// [angle][k-local][i-local], ordered along the octant's z direction (tile-
// local k index kk counts from the tile's z entry face). zPlane carries the
// per-angle z inflow into this tile and is updated to the tile's outflow.
// A nil inX or inY means zero inflow at the grid boundary.
func (p *TransportProblem) computeTile(flux, scratch, zPlane []float64, oct Octant, b block,
	k0, k1 int, inX, inY, outX, outY []float64) {
	g := p.Grid
	kh := k1 - k0
	nxL, nyL := b.nx(), b.ny()
	xUp, yUp := dirOf(oct.Corner)
	ks, ke, kd := loopRange(k0, k1, oct.ZUp)
	js, je, jd := loopRange(b.y0, b.y1, yUp)
	is, ie, id := loopRange(b.x0, b.x1, xUp)
	// kkOf maps global k to the tile-local index counting from the entry face.
	kkOf := func(k int) int {
		if oct.ZUp {
			return k - k0
		}
		return k1 - 1 - k
	}
	sidx := func(i, j, kk int) int { return (kk*nyL+(j-b.y0))*nxL + (i - b.x0) }

	for a := range p.Angles {
		ang := p.Angles[a]
		den := p.Sigma + ang.Ax + ang.Ay + ang.Az
		zBase := a * nyL * nxL
		for k := ks; k != ke; k += kd {
			kk := kkOf(k)
			for j := js; j != je; j += jd {
				for i := is; i != ie; i += id {
					var px, py, pz float64
					if iu := i - id; iu >= b.x0 && iu < b.x1 {
						px = scratch[sidx(iu, j, kk)]
					} else if inX != nil {
						px = inX[(a*kh+kk)*nyL+(j-b.y0)]
					}
					if ju := j - jd; ju >= b.y0 && ju < b.y1 {
						py = scratch[sidx(i, ju, kk)]
					} else if inY != nil {
						py = inY[(a*kh+kk)*nxL+(i-b.x0)]
					}
					if kk > 0 {
						pz = scratch[sidx(i, j, kk-1)]
					} else if ku := k - kd; ku >= 0 && ku < g.Nz {
						pz = zPlane[zBase+(j-b.y0)*nxL+(i-b.x0)]
					}
					v := (p.Source[p.idx(i, j, k)] + ang.Ax*px + ang.Ay*py + ang.Az*pz) / den
					scratch[sidx(i, j, kk)] = v
					flux[p.idx(i, j, k)] += ang.Weight * v
					if i == ie-id {
						outX[(a*kh+kk)*nyL+(j-b.y0)] = v
					}
					if j == je-jd {
						outY[(a*kh+kk)*nxL+(i-b.x0)] = v
					}
					if kk == kh-1 {
						zPlane[zBase+(j-b.y0)*nxL+(i-b.x0)] = v
					}
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
