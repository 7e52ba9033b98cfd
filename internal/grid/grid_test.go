package grid

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewGridPanicsOnInvalid(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(%v) did not panic", dims)
				}
			}()
			NewGrid(dims[0], dims[1], dims[2])
		}()
	}
}

func TestGridCells(t *testing.T) {
	g := NewGrid(240, 240, 240)
	if got, want := g.Cells(), int64(240*240*240); got != want {
		t.Errorf("Cells() = %d, want %d", got, want)
	}
	if Cube(240) != g {
		t.Errorf("Cube(240) = %v, want %v", Cube(240), g)
	}
}

func TestGridString(t *testing.T) {
	if got := NewGrid(4, 5, 6).String(); got != "4x5x6" {
		t.Errorf("String() = %q", got)
	}
}

func TestNewDecompositionErrors(t *testing.T) {
	g := Cube(8)
	if _, err := NewDecomposition(g, 0, 2); err == nil {
		t.Error("expected error for zero columns")
	}
	if _, err := NewDecomposition(g, 2, -1); err == nil {
		t.Error("expected error for negative rows")
	}
}

func TestSquareDecomposition(t *testing.T) {
	g := Cube(64)
	for _, tc := range []struct {
		p, n, m int
	}{
		{1, 1, 1},
		{4, 2, 2},
		{7, 7, 1},
		{8, 4, 2},
		{64, 8, 8},
		{128, 16, 8},
		{8192, 128, 64},
		{131072, 512, 256},
	} {
		d, err := SquareDecomposition(g, tc.p)
		if err != nil {
			t.Fatalf("SquareDecomposition(%d): %v", tc.p, err)
		}
		if d.N != tc.n || d.M != tc.m {
			t.Errorf("SquareDecomposition(%d) = %dx%d, want %dx%d", tc.p, d.N, d.M, tc.n, tc.m)
		}
		if d.P() != tc.p {
			t.Errorf("P() = %d, want %d", d.P(), tc.p)
		}
	}
	if _, err := SquareDecomposition(g, 0); err == nil {
		t.Error("expected error for p=0")
	}
}

func TestCellsPerRank(t *testing.T) {
	d := MustDecompose(NewGrid(100, 90, 50), 8, 3)
	if got := d.CellsPerRankX(); got != 13 { // ceil(100/8)
		t.Errorf("CellsPerRankX = %d, want 13", got)
	}
	if got := d.CellsPerRankY(); got != 30 {
		t.Errorf("CellsPerRankY = %d, want 30", got)
	}
	if got := d.CellsPerTile(2); got != 2*13*30 {
		t.Errorf("CellsPerTile(2) = %v, want %v", got, 2*13*30)
	}
	if got := d.TilesPerStack(4); got != 13 { // ceil(50/4)
		t.Errorf("TilesPerStack(4) = %d, want 13", got)
	}
}

func TestTilesPerStackPanicsOnZeroHeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustDecompose(Cube(8), 2, 2).TilesPerStack(0)
}

func TestRankCoordRoundTrip(t *testing.T) {
	d := MustDecompose(Cube(32), 7, 5)
	seen := map[int]bool{}
	for j := 1; j <= d.M; j++ {
		for i := 1; i <= d.N; i++ {
			c := Coord{I: i, J: j}
			r := d.Rank(c)
			if r < 0 || r >= d.P() {
				t.Fatalf("Rank(%v) = %d out of range", c, r)
			}
			if seen[r] {
				t.Fatalf("Rank(%v) = %d duplicates another coordinate", c, r)
			}
			seen[r] = true
			if got := d.CoordOf(r); got != c {
				t.Fatalf("CoordOf(Rank(%v)) = %v", c, got)
			}
		}
	}
}

func TestRankCoordRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Intn(20) + 1)
			vals[1] = reflect.ValueOf(r.Intn(20) + 1)
			vals[2] = reflect.ValueOf(r.Intn(400))
		},
	}
	prop := func(n, m, rank int) bool {
		d := MustDecompose(Cube(8), n, m)
		rank %= d.P()
		return d.Rank(d.CoordOf(rank)) == rank
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCornerOriginAndOpposite(t *testing.T) {
	for _, tc := range []struct{ c, opposite Corner }{
		{NW, SE}, {NE, SW}, {SW, NE}, {SE, NW},
	} {
		if got := tc.c.Opposite(); got != tc.opposite {
			t.Errorf("Opposite(%v) = %v, want %v", tc.c, got, tc.opposite)
		}
	}
}

func TestOppositeIsInvolution(t *testing.T) {
	for _, c := range []Corner{NW, NE, SW, SE} {
		if c.Opposite().Opposite() != c {
			t.Errorf("Opposite is not an involution for %v", c)
		}
	}
}

func TestContains(t *testing.T) {
	d := MustDecompose(Cube(8), 3, 2)
	for _, tc := range []struct {
		c  Coord
		in bool
	}{
		{Coord{1, 1}, true}, {Coord{3, 2}, true},
		{Coord{0, 1}, false}, {Coord{4, 1}, false}, {Coord{1, 3}, false}, {Coord{2, 0}, false},
	} {
		if got := d.Contains(tc.c); got != tc.in {
			t.Errorf("Contains(%v) = %v", tc.c, got)
		}
	}
}

func TestCornerStringAndStep(t *testing.T) {
	names := map[Corner]string{NW: "NW", NE: "NE", SW: "SW", SE: "SE"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("String(%d) = %q", int(c), c.String())
		}
	}
	di, dj := SE.Step()
	if di != -1 || dj != -1 {
		t.Errorf("SE.Step() = %d,%d", di, dj)
	}
	di, dj = NW.Step()
	if di != 1 || dj != 1 {
		t.Errorf("NW.Step() = %d,%d", di, dj)
	}
}
