package workload

import (
	"math"
	"testing"

	"repro/internal/grid"
)

func mustGen(t *testing.T, spec Spec, dec grid.Decomposition) *Generator {
	t.Helper()
	g, err := New(spec, dec)
	if err != nil {
		t.Fatalf("New(%+v): %v", spec, err)
	}
	return g
}

func dec4x4(t *testing.T) grid.Decomposition {
	t.Helper()
	return grid.MustDecompose(grid.Cube(32), 4, 4)
}

// The zero spec and the seed=0 uniform spec must be exact identities:
// multiplier bit-equal to 1.0 and noise bit-equal to 0.0 everywhere,
// so attaching them cannot perturb any golden result.
func TestUniformIsExactIdentity(t *testing.T) {
	dec := dec4x4(t)
	for _, spec := range []Spec{
		{},
		{Dist: DistUniform, Seed: 0},
		{Dist: DistUniform, Seed: 99},
		{Dist: DistNormal, Sigma: 0},
		{Dist: DistLognormal, Sigma: 0},
		{Dist: DistHotspot, HotFrac: 0.5, HotMul: 1},
		{Noise: &NoiseSpec{Rate: 0, AmpUS: 50}},
		{Blocks: []Block{{X0: 0, Y0: 0, X1: 1, Y1: 1, Mul: 1}}},
	} {
		g := mustGen(t, spec, dec)
		for r := 0; r < dec.P(); r++ {
			for sweep := 0; sweep < 3; sweep++ {
				for tile := 0; tile < 5; tile++ {
					mul, extra := g.Tile(r, sweep, tile)
					if mul != 1.0 || extra != 0.0 {
						t.Fatalf("spec %+v rank %d sweep %d tile %d: Tile = (%v, %v), want exactly (1, 0)",
							spec, r, sweep, tile, mul, extra)
					}
				}
			}
		}
	}
}

// Samples are pure functions of (seed, rank, sweep, tile): re-creating
// the generator, or evaluating in any order, yields bit-identical
// values; changing the seed yields a different stream.
func TestPurityAndSeedSensitivity(t *testing.T) {
	dec := dec4x4(t)
	spec := Spec{Dist: DistLognormal, Sigma: 0.5, Seed: 7,
		Noise: &NoiseSpec{Rate: 1.5, AmpUS: 40}}
	a := mustGen(t, spec, dec)
	b := mustGen(t, spec, dec)

	type sample struct{ mul, noise float64 }
	forward := map[[3]int]sample{}
	for r := 0; r < dec.P(); r++ {
		for sweep := 0; sweep < 4; sweep++ {
			for tile := 0; tile < 8; tile++ {
				forward[[3]int{r, sweep, tile}] = sample{a.TileMul(r, sweep, tile), a.TileNoise(r, sweep, tile)}
			}
		}
	}
	// Reverse order on an independent generator.
	for r := dec.P() - 1; r >= 0; r-- {
		for sweep := 3; sweep >= 0; sweep-- {
			for tile := 7; tile >= 0; tile-- {
				want := forward[[3]int{r, sweep, tile}]
				got := sample{b.TileMul(r, sweep, tile), b.TileNoise(r, sweep, tile)}
				if got != want {
					t.Fatalf("rank %d sweep %d tile %d: %+v != %+v", r, sweep, tile, got, want)
				}
			}
		}
	}

	other := mustGen(t, Spec{Dist: DistLognormal, Sigma: 0.5, Seed: 8,
		Noise: &NoiseSpec{Rate: 1.5, AmpUS: 40}}, dec)
	same := 0
	for r := 0; r < dec.P(); r++ {
		if other.TileMul(r, 0, 0) == a.TileMul(r, 0, 0) {
			same++
		}
	}
	if same == dec.P() {
		t.Fatal("seed 7 and seed 8 produced identical multiplier streams")
	}
}

// The continuous distributions must hit their advertised first two
// moments: mean 1 and standard deviation Sigma (of the log for
// lognormal, whose arithmetic mean is still 1 by construction).
func TestDistributionMoments(t *testing.T) {
	dec := grid.MustDecompose(grid.Cube(32), 8, 8)
	const sweeps, tiles = 5, 40 // 64 ranks × 200 samples = 12800 draws
	for _, tc := range []struct {
		spec    Spec
		wantStd float64
	}{
		{Spec{Dist: DistUniform, Sigma: 0.2, Seed: 3}, 0.2},
		{Spec{Dist: DistNormal, Sigma: 0.15, Seed: 3}, 0.15},
		{Spec{Dist: DistLognormal, Sigma: 0.25, Seed: 3}, 0}, // std checked loosely below
	} {
		g := mustGen(t, tc.spec, dec)
		var sum, sum2 float64
		n := 0
		for r := 0; r < dec.P(); r++ {
			for sweep := 0; sweep < sweeps; sweep++ {
				for tile := 0; tile < tiles; tile++ {
					v := g.TileMul(r, sweep, tile)
					if v < minMul {
						t.Fatalf("%s: multiplier %v below floor", tc.spec.Dist, v)
					}
					sum += v
					sum2 += v * v
					n++
				}
			}
		}
		mean := sum / float64(n)
		std := math.Sqrt(sum2/float64(n) - mean*mean)
		if math.Abs(mean-1) > 0.02 {
			t.Errorf("%s: sample mean %v, want ≈ 1", tc.spec.Dist, mean)
		}
		if tc.wantStd > 0 && math.Abs(std-tc.wantStd) > 0.2*tc.wantStd {
			t.Errorf("%s: sample std %v, want ≈ %v", tc.spec.Dist, std, tc.wantStd)
		}
		if tc.spec.Dist == DistLognormal && (std < 0.15 || std > 0.40) {
			t.Errorf("lognormal: sample std %v outside plausible range for σ=0.25", std)
		}
	}
}

// Hotspot marks a stable per-rank subset: hot ranks are HotMul× on
// every tile, cold ranks exactly 1×, and the hot fraction is near
// HotFrac on a large array.
func TestHotspot(t *testing.T) {
	dec := grid.MustDecompose(grid.Cube(64), 32, 32) // 1024 ranks
	spec := Spec{Dist: DistHotspot, HotFrac: 0.2, HotMul: 3, Seed: 5}
	g := mustGen(t, spec, dec)
	hot := 0
	for r := 0; r < dec.P(); r++ {
		first := g.TileMul(r, 0, 0)
		if first != 1 && first != 3 {
			t.Fatalf("rank %d: multiplier %v, want exactly 1 or 3", r, first)
		}
		for sweep := 0; sweep < 3; sweep++ {
			for tile := 0; tile < 4; tile++ {
				if got := g.TileMul(r, sweep, tile); got != first {
					t.Fatalf("rank %d: hotspot multiplier varies across tiles (%v vs %v)", r, got, first)
				}
			}
		}
		if first == 3 {
			hot++
		}
	}
	frac := float64(hot) / float64(dec.P())
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("hot fraction %v, want ≈ 0.2", frac)
	}
}

// Blocks multiply exactly the ranks whose fractional coordinate falls
// inside the region, and overlapping blocks compound.
func TestBlocks(t *testing.T) {
	dec := dec4x4(t) // 4×4 array: rank columns at fx = .125, .375, .625, .875
	spec := Spec{Blocks: []Block{
		{X0: 0, Y0: 0, X1: 0.5, Y1: 0.5, Mul: 2},
		{X0: 0, Y0: 0, X1: 0.25, Y1: 0.25, Mul: 3},
	}}
	g := mustGen(t, spec, dec)
	for r := 0; r < dec.P(); r++ {
		c := dec.CoordOf(r)
		want := 1.0
		if c.I <= 2 && c.J <= 2 {
			want = 2
		}
		if c.I == 1 && c.J == 1 {
			want = 6
		}
		if got := g.TileMul(r, 0, 0); got != want {
			t.Errorf("rank %d at %+v: multiplier %v, want %v", r, c, got, want)
		}
	}
}

// Noise totals must track Rate × AmpUS in expectation and be zero for
// a disabled spec.
// TestNoRankTableWithoutRankEffects: a spec with no blocks and no hotspot
// keeps no per-rank table, and its tiles are bit-identical to the same
// spec with a neutral block covering the grid, which does keep one.
func TestNoRankTableWithoutRankEffects(t *testing.T) {
	dec := dec4x4(t)
	plain := Spec{Dist: DistLognormal, Sigma: 0.2, Seed: 7, Noise: &NoiseSpec{Rate: 0.5, AmpUS: 3}}
	covered := plain
	covered.Blocks = []Block{{X0: 0, Y0: 0, X1: 1, Y1: 1, Mul: 1}}
	a, b := mustGen(t, plain, dec), mustGen(t, covered, dec)
	if a.rankMul != nil {
		t.Errorf("plain lognormal spec keeps a %d-rank table", len(a.rankMul))
	}
	if len(b.rankMul) != dec.P() {
		t.Fatalf("block spec keeps %d rank multipliers, want %d", len(b.rankMul), dec.P())
	}
	for r := 0; r < dec.P(); r++ {
		for sweep := 0; sweep < 3; sweep++ {
			for tile := 0; tile < 5; tile++ {
				am, ax := a.Tile(r, sweep, tile)
				bm, bx := b.Tile(r, sweep, tile)
				if math.Float64bits(am) != math.Float64bits(bm) || math.Float64bits(ax) != math.Float64bits(bx) {
					t.Fatalf("rank %d sweep %d tile %d: (%x, %x) without the block, (%x, %x) with it", r, sweep, tile, am, ax, bm, bx)
				}
			}
		}
	}
}

func TestNoiseMoments(t *testing.T) {
	dec := grid.MustDecompose(grid.Cube(32), 8, 8)
	spec := Spec{Noise: &NoiseSpec{Rate: 2, AmpUS: 50}, Seed: 11}
	g := mustGen(t, spec, dec)
	var sum float64
	n := 0
	for r := 0; r < dec.P(); r++ {
		for sweep := 0; sweep < 5; sweep++ {
			for tile := 0; tile < 20; tile++ {
				v := g.TileNoise(r, sweep, tile)
				if v < 0 {
					t.Fatalf("negative noise %v", v)
				}
				sum += v
				n++
			}
		}
	}
	mean := sum / float64(n)
	if mean < 80 || mean > 120 {
		t.Errorf("noise mean %vµs, want ≈ 100µs (rate 2 × 50µs)", mean)
	}
}

func TestValidateRejects(t *testing.T) {
	for _, spec := range []Spec{
		{Dist: "zipf"},
		{Dist: DistNormal, Sigma: -0.1},
		{Dist: DistNormal, Sigma: math.NaN()},
		{Dist: DistUniform, HotFrac: 0.5},
		{Dist: DistHotspot, HotFrac: 1.5, HotMul: 2},
		{Dist: DistHotspot, HotFrac: 0.5}, // HotMul unset
		{Dist: DistHotspot, HotFrac: 0.1, HotMul: 2, Sigma: 0.3},
		{Noise: &NoiseSpec{Rate: -1}},
		{Noise: &NoiseSpec{Rate: 100, AmpUS: 1}},
		{Noise: &NoiseSpec{Rate: 1, AmpUS: -5}},
		{Blocks: []Block{{X0: 0.5, X1: 0.25, Y0: 0, Y1: 1, Mul: 2}}},
		{Blocks: []Block{{X0: 0, X1: 1.5, Y0: 0, Y1: 1, Mul: 2}}},
		{Blocks: []Block{{X0: 0, X1: 1, Y0: 0, Y1: 1, Mul: 0}}},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", spec)
		}
		if _, err := New(spec, dec4x4(t)); err == nil {
			t.Errorf("New(%+v) = nil error, want error", spec)
		}
	}
}

// Labels double as campaign dimension values, so distinct specs need
// distinct labels.
func TestStringDistinct(t *testing.T) {
	specs := []Spec{
		{},
		{Dist: DistUniform, Sigma: 0.2, Seed: 1},
		{Dist: DistUniform, Sigma: 0.2, Seed: 2},
		{Dist: DistNormal, Sigma: 0.2, Seed: 1},
		{Dist: DistLognormal, Sigma: 0.2, Seed: 1},
		{Dist: DistHotspot, HotFrac: 0.1, HotMul: 4, Seed: 1},
		{Noise: &NoiseSpec{Rate: 0.5, AmpUS: 25}},
		{Noise: &NoiseSpec{Rate: 2, AmpUS: 25}},
		{Blocks: []Block{{X0: 0, Y0: 0, X1: 0.5, Y1: 0.5, Mul: 3}}},
		{Blocks: []Block{{X0: 0, Y0: 0, X1: 0.5, Y1: 0.5, Mul: 2}}},
	}
	seen := map[string]int{}
	for i, s := range specs {
		label := s.String()
		if label == "" {
			t.Errorf("spec %d: empty label", i)
		}
		if j, dup := seen[label]; dup {
			t.Errorf("specs %d and %d share label %q", i, j, label)
		}
		seen[label] = i
	}
	if got := (&Spec{}).String(); got != "uniform" {
		t.Errorf("zero spec label = %q, want \"uniform\"", got)
	}
}
