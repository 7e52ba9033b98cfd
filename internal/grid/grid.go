// Package grid provides the 3-D data grid and 2-D processor decomposition
// used by pipelined wavefront computations.
//
// A wavefront computation operates on a three dimensional discretized grid
// of Nx × Ny × Nz data cells. The grid is partitioned and mapped onto a
// two-dimensional m × n array of processors so that each processor owns a
// stack of data cells of size Nx/n × Ny/m × Nz (paper Figure 1(a)). A
// processor is indexed (i, j) where i ∈ [1, n] is the column and j ∈ [1, m]
// is the row, matching the paper's notation.
package grid

import "fmt"

// Grid describes a 3-D discretized data grid.
type Grid struct {
	Nx, Ny, Nz int
}

// NewGrid returns a grid with the given dimensions. It panics if any
// dimension is non-positive; grids are validated at construction so that
// downstream model code can assume well-formed inputs.
func NewGrid(nx, ny, nz int) Grid {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%dx%d", nx, ny, nz))
	}
	return Grid{Nx: nx, Ny: ny, Nz: nz}
}

// Cells returns the total number of data cells Nx × Ny × Nz.
func (g Grid) Cells() int64 {
	return int64(g.Nx) * int64(g.Ny) * int64(g.Nz)
}

// Cube returns the cubic grid with edge length e (e.g. Cube(240) is the
// Chimaera 240³ benchmark problem).
func Cube(e int) Grid { return NewGrid(e, e, e) }

// String implements fmt.Stringer.
func (g Grid) String() string { return fmt.Sprintf("%dx%dx%d", g.Nx, g.Ny, g.Nz) }

// Decomposition is a 2-D partition of a Grid over an n × m processor array.
// n is the number of processor columns (x direction) and m the number of
// rows (y direction). The total processor count is P = n × m.
type Decomposition struct {
	Grid Grid
	N    int // processor columns (paper's n)
	M    int // processor rows (paper's m)
}

// NewDecomposition maps g onto an n-column × m-row processor array.
func NewDecomposition(g Grid, n, m int) (Decomposition, error) {
	if n <= 0 || m <= 0 {
		return Decomposition{}, fmt.Errorf("grid: invalid processor array %dx%d", n, m)
	}
	return Decomposition{Grid: g, N: n, M: m}, nil
}

// MustDecompose is NewDecomposition but panics on error; it is intended for
// tests and experiment drivers with known-good inputs.
func MustDecompose(g Grid, n, m int) Decomposition {
	d, err := NewDecomposition(g, n, m)
	if err != nil {
		panic(err)
	}
	return d
}

// SquareDecomposition maps g onto the most-square n × m array with
// n × m = p, preferring n ≥ m: m is the largest divisor of p with m² ≤ p.
// Any p > 0 succeeds, so a prime p yields the degenerate p × 1 pipeline
// (7 gives 7 × 1); callers that want another shape can use
// NewDecomposition. It returns an error only for p ≤ 0.
func SquareDecomposition(g Grid, p int) (Decomposition, error) {
	if p <= 0 {
		return Decomposition{}, fmt.Errorf("grid: invalid processor count %d", p)
	}
	bestN, bestM := p, 1
	for m := 1; m*m <= p; m++ {
		if p%m == 0 {
			bestM = m
			bestN = p / m
		}
	}
	return NewDecomposition(g, bestN, bestM)
}

// P returns the total number of processors n × m.
func (d Decomposition) P() int { return d.N * d.M }

// CellsPerRankX returns Nx/n, the x-extent of each processor's stack. The
// paper assumes even divisibility; when the division is uneven we round up
// (the critical-path processor owns the larger share).
func (d Decomposition) CellsPerRankX() int { return ceilDiv(d.Grid.Nx, d.N) }

// CellsPerRankY returns Ny/m, the y-extent of each processor's stack.
func (d Decomposition) CellsPerRankY() int { return ceilDiv(d.Grid.Ny, d.M) }

// CellsPerTile returns the number of cells in one tile of height h:
// h × Nx/n × Ny/m.
func (d Decomposition) CellsPerTile(h int) float64 {
	return float64(h) * float64(d.CellsPerRankX()) * float64(d.CellsPerRankY())
}

// TilesPerStack returns Nz/Htile, the number of tiles each processor
// processes during one sweep.
func (d Decomposition) TilesPerStack(htile int) int {
	if htile <= 0 {
		panic("grid: non-positive tile height")
	}
	return ceilDiv(d.Grid.Nz, htile)
}

// Coord is a processor coordinate in the paper's (i, j) 1-based indexing:
// I is the column in [1, n], J is the row in [1, m].
type Coord struct {
	I, J int
}

// Rank converts a coordinate to a 0-based linear rank in row-major order.
func (d Decomposition) Rank(c Coord) int {
	return (c.J-1)*d.N + (c.I - 1)
}

// CoordOf converts a 0-based linear rank back to a coordinate.
func (d Decomposition) CoordOf(rank int) Coord {
	return Coord{I: rank%d.N + 1, J: rank/d.N + 1}
}

// Contains reports whether c is inside the processor array.
func (d Decomposition) Contains(c Coord) bool {
	return c.I >= 1 && c.I <= d.N && c.J >= 1 && c.J <= d.M
}

// Corner identifies one of the four corners of the 2-D processor array; a
// sweep originates at a corner (paper Figure 2).
type Corner int

// The four sweep origins. Directions are named after the corner coordinate
// in the (i, j) grid: NW is (1,1), NE is (n,1), SW is (1,m), SE is (n,m).
const (
	NW Corner = iota // origin (1,1): sweep travels +i, +j
	NE               // origin (n,1): sweep travels -i, +j
	SW               // origin (1,m): sweep travels +i, -j
	SE               // origin (n,m): sweep travels -i, -j
)

var cornerNames = [...]string{"NW", "NE", "SW", "SE"}

// String implements fmt.Stringer.
func (c Corner) String() string {
	if c < 0 || int(c) >= len(cornerNames) {
		return fmt.Sprintf("Corner(%d)", int(c))
	}
	return cornerNames[c]
}

// Opposite returns the corner diagonally opposite c; a sweep originating at
// c fully completes when the processor at Opposite(c) finishes its stack.
func (c Corner) Opposite() Corner {
	switch c {
	case NW:
		return SE
	case NE:
		return SW
	case SW:
		return NE
	case SE:
		return NW
	}
	panic(fmt.Sprintf("grid: invalid corner %d", int(c)))
}

// Step returns the unit step (di, dj) a sweep from corner c takes across the
// processor array.
func (c Corner) Step() (di, dj int) {
	switch c {
	case NW:
		return 1, 1
	case NE:
		return -1, 1
	case SW:
		return 1, -1
	case SE:
		return -1, -1
	}
	panic(fmt.Sprintf("grid: invalid corner %d", int(c)))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
