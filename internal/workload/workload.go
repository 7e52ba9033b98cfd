// Package workload generates seeded, deterministic per-tile compute
// variation for wavefront schedules: load-imbalance distributions
// (uniform/normal/lognormal/hotspot), OS-noise injection, and
// multi-block grid regions with their own cost multipliers.
//
// The paper's model (and the rest of this reproduction) assumes
// perfectly uniform per-tile compute — the regime where an analytic
// model is easiest to trust. A workload Spec perturbs the simulator
// side only: each tile's compute time becomes base × Mul + Noise,
// where Mul and Noise are pure functions of (seed, rank, sweep, tile).
// The analytic model deliberately keeps the paper's uniform-compute
// assumption, so the measured model-vs-simulator error under imbalance
// is the feature, not a bug.
//
// Determinism is structural rather than procedural: there is no
// sequential RNG stream to replay in order. Every sample is an
// independent hash of its coordinates (splitmix64-style), so the same
// spec yields bit-identical workloads regardless of worker count,
// shard count, or evaluation order. The zero Spec — and any spec whose
// knobs are all at their neutral values — multiplies by exactly 1.0
// and adds exactly 0.0, leaving schedules bit-identical to the
// constant-cost path.
package workload

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/grid"
)

// Distribution names accepted by Spec.Dist. The empty string means
// uniform.
const (
	DistUniform   = "uniform"
	DistNormal    = "normal"
	DistLognormal = "lognormal"
	DistHotspot   = "hotspot"
)

// NoiseSpec injects OS-noise events: per tile, a Poisson-distributed
// number of events (mean Rate) each adding an exponentially-distributed
// delay with mean AmpUS µs to the tile's compute time. This is the
// classic fixed-work quantum model of OS jitter: infrequent daemons and
// interrupts stealing whole time slices, not a per-cell slowdown.
type NoiseSpec struct {
	Rate  float64 `json:"rate"`   // expected noise events per tile
	AmpUS float64 `json:"amp_us"` // mean per-event delay in µs
}

// Block marks a rectangular region of the processor array whose ranks
// multiply their per-tile compute by Mul — the multi-block/irregular-
// grid knob: a refined mesh block or a physics-heavy subdomain costs
// more per tile than the rest of the domain. Bounds are fractions of
// the array in [0, 1] so one spec applies across processor counts: rank
// (i, j) of an n × m array is inside when (i-½)/n ∈ [X0, X1) and
// (j-½)/m ∈ [Y0, Y1). Overlapping blocks compound multiplicatively.
type Block struct {
	X0  float64 `json:"x0"`
	Y0  float64 `json:"y0"`
	X1  float64 `json:"x1"`
	Y1  float64 `json:"y1"`
	Mul float64 `json:"mul"`
}

// Spec parameterises a workload generator. The zero value is the
// uniform workload: multiplier exactly 1, noise exactly 0.
type Spec struct {
	// Dist selects the per-tile multiplier distribution: "" or
	// "uniform" (mean 1, half-width √3·Sigma), "normal" (mean 1,
	// std-dev Sigma), "lognormal" (mean 1, log-std-dev Sigma), or
	// "hotspot" (a HotFrac fraction of ranks run every tile HotMul×
	// slower — persistent slow nodes, not transient jitter).
	Dist string `json:"dist,omitempty"`

	// Seed selects the deterministic sample stream. Two specs that
	// differ only in Seed are distinct workloads (and distinct RunKeys).
	Seed uint64 `json:"seed,omitempty"`

	// Sigma is the spread of the uniform/normal/lognormal distributions;
	// 0 collapses them to exactly 1.
	Sigma float64 `json:"sigma,omitempty"`

	// HotFrac and HotMul configure the hotspot distribution.
	HotFrac float64 `json:"hot_frac,omitempty"`
	HotMul  float64 `json:"hot_mul,omitempty"`

	// Noise, if non-nil, adds OS-noise events on top of the multiplier.
	Noise *NoiseSpec `json:"noise,omitempty"`

	// Blocks, if non-empty, compound per-region multipliers onto every
	// rank inside each region.
	Blocks []Block `json:"blocks,omitempty"`
}

// minMul floors the per-tile multiplier so that heavy-tailed draws can
// never produce a non-positive (time-reversing) compute duration.
const minMul = 0.05

// maxNoiseRate bounds the Poisson rate so noise sampling stays O(Rate)
// per tile.
const maxNoiseRate = 16

// Validate reports spec errors. It is decomposition-independent so that
// campaign specs can be validated before ranks are chosen.
func (s *Spec) Validate() error {
	switch s.Dist {
	case "", DistUniform, DistNormal, DistLognormal:
		if s.Sigma < 0 || math.IsNaN(s.Sigma) || math.IsInf(s.Sigma, 0) {
			return fmt.Errorf("workload: invalid sigma %v", s.Sigma)
		}
		if s.HotFrac != 0 || s.HotMul != 0 {
			return fmt.Errorf("workload: hot_frac/hot_mul require dist %q", DistHotspot)
		}
	case DistHotspot:
		if s.Sigma != 0 {
			return fmt.Errorf("workload: sigma is not a %q parameter", DistHotspot)
		}
		if s.HotFrac < 0 || s.HotFrac > 1 || math.IsNaN(s.HotFrac) {
			return fmt.Errorf("workload: hot_frac %v outside [0, 1]", s.HotFrac)
		}
		if s.HotMul < minMul || math.IsNaN(s.HotMul) || math.IsInf(s.HotMul, 0) {
			return fmt.Errorf("workload: hot_mul %v below minimum %v", s.HotMul, minMul)
		}
	default:
		return fmt.Errorf("workload: unknown distribution %q (want %s, %s, %s or %s)",
			s.Dist, DistUniform, DistNormal, DistLognormal, DistHotspot)
	}
	if n := s.Noise; n != nil {
		if n.Rate < 0 || n.Rate > maxNoiseRate || math.IsNaN(n.Rate) {
			return fmt.Errorf("workload: noise rate %v outside [0, %d]", n.Rate, maxNoiseRate)
		}
		if n.AmpUS < 0 || math.IsNaN(n.AmpUS) || math.IsInf(n.AmpUS, 0) {
			return fmt.Errorf("workload: invalid noise amplitude %v", n.AmpUS)
		}
	}
	for i, b := range s.Blocks {
		if !(b.X0 >= 0 && b.X0 < b.X1 && b.X1 <= 1) || !(b.Y0 >= 0 && b.Y0 < b.Y1 && b.Y1 <= 1) {
			return fmt.Errorf("workload: block %d bounds [%v,%v)x[%v,%v) outside the unit square",
				i, b.X0, b.X1, b.Y0, b.Y1)
		}
		if b.Mul < minMul || math.IsNaN(b.Mul) || math.IsInf(b.Mul, 0) {
			return fmt.Errorf("workload: block %d multiplier %v below minimum %v", i, b.Mul, minMul)
		}
	}
	return nil
}

// String returns a compact human-readable label, used as the campaign
// run dimension value. Distinct specs produce distinct labels.
func (s *Spec) String() string {
	var b strings.Builder
	switch s.Dist {
	case "", DistUniform:
		if s.Sigma == 0 {
			b.WriteString("uniform")
		} else {
			fmt.Fprintf(&b, "uniform(σ=%g,seed=%d)", s.Sigma, s.Seed)
		}
	case DistNormal, DistLognormal:
		fmt.Fprintf(&b, "%s(σ=%g,seed=%d)", s.Dist, s.Sigma, s.Seed)
	case DistHotspot:
		fmt.Fprintf(&b, "hotspot(%g%%×%g,seed=%d)", s.HotFrac*100, s.HotMul, s.Seed)
	default:
		fmt.Fprintf(&b, "%s(?)", s.Dist)
	}
	if n := s.Noise; n != nil && n.Rate > 0 {
		fmt.Fprintf(&b, "+noise(%g×%gµs)", n.Rate, n.AmpUS)
	}
	for _, blk := range s.Blocks {
		fmt.Fprintf(&b, "+block[%g,%g,%g,%g]×%g", blk.X0, blk.Y0, blk.X1, blk.Y1, blk.Mul)
	}
	return b.String()
}

// Generator evaluates a validated Spec on a concrete decomposition.
// All methods are pure functions of their arguments and safe for
// concurrent use.
type Generator struct {
	spec Spec
	// rankMul folds everything that varies per rank but not per tile —
	// block membership and hotspot status — into one precomputed
	// multiplier, exactly 1.0 for unaffected ranks. It is nil when the
	// spec has neither, and every rank's multiplier is 1.0.
	rankMul []float64
	// perTile is true when Dist draws a fresh multiplier per tile
	// (uniform/normal/lognormal with Sigma > 0).
	perTile bool
}

// New validates spec against dec and returns its generator.
func New(spec Spec, dec grid.Decomposition) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		spec:    spec,
		perTile: spec.Dist != DistHotspot && spec.Sigma > 0,
	}
	if len(spec.Blocks) > 0 || spec.Dist == DistHotspot && spec.HotFrac > 0 {
		g.rankMul = make([]float64, dec.P())
	}
	for r := range g.rankMul {
		mul := 1.0
		c := dec.CoordOf(r)
		fx := (float64(c.I) - 0.5) / float64(dec.N)
		fy := (float64(c.J) - 0.5) / float64(dec.M)
		for _, b := range spec.Blocks {
			if fx >= b.X0 && fx < b.X1 && fy >= b.Y0 && fy < b.Y1 {
				mul *= b.Mul
			}
		}
		if spec.Dist == DistHotspot && spec.HotFrac > 0 {
			// Hot ranks are a seeded per-rank draw, so the hot set is
			// stable across sweeps and tiles: persistent slow nodes.
			if u01(hash(spec.Seed, uint64(r), hotLane, 0)) < spec.HotFrac {
				mul *= spec.HotMul
			}
		}
		g.rankMul[r] = mul
	}
	return g, nil
}

// Lane constants separate the hash streams of independent sampling
// purposes so that e.g. the multiplier draw and the noise draw of the
// same tile are uncorrelated.
const (
	mulLane uint64 = iota + 1
	noiseLane
	hotLane
)

// TileMul returns the compute-time multiplier of (rank, sweep, tile):
// the distribution draw times the rank's block/hotspot multiplier.
// A neutral spec returns exactly 1.0.
func (g *Generator) TileMul(rank, sweep, tile int) float64 {
	mul := 1.0
	if g.rankMul != nil {
		mul = g.rankMul[rank]
	}
	if g.perTile {
		h := hash(g.spec.Seed, uint64(rank), mulLane, pack(sweep, tile))
		switch g.spec.Dist {
		case "", DistUniform:
			// Half-width √3·σ keeps the standard deviation at σ.
			mul *= 1 + g.spec.Sigma*math.Sqrt(3)*(2*u01(h)-1)
		case DistNormal:
			mul *= 1 + g.spec.Sigma*normal(h)
		case DistLognormal:
			// μ = -σ²/2 keeps the mean at exactly e⁰ = 1.
			s := g.spec.Sigma
			mul *= math.Exp(-s*s/2 + s*normal(h))
		}
		if mul < minMul {
			mul = minMul
		}
	}
	return mul
}

// TileNoise returns the additive OS-noise delay in µs of
// (rank, sweep, tile): the sum of a Poisson(Rate) number of
// Exp(AmpUS) event delays. A nil or zero NoiseSpec returns exactly 0.0.
func (g *Generator) TileNoise(rank, sweep, tile int) float64 {
	n := g.spec.Noise
	if n == nil || n.Rate <= 0 || n.AmpUS <= 0 {
		return 0
	}
	// Knuth's Poisson sampler: multiply uniforms until the product
	// drops below e^-rate. Each uniform comes from its own lane-offset
	// hash, so the sample is still a pure function of the coordinates.
	limit := math.Exp(-n.Rate)
	base := pack(sweep, tile)
	prod := 1.0
	events := -1
	for k := uint64(0); ; k++ {
		prod *= u01(hash(g.spec.Seed, uint64(rank), noiseLane+8*k, base))
		if prod < limit {
			events = int(k)
			break
		}
	}
	total := 0.0
	for k := 0; k < events; k++ {
		u := u01(hash(g.spec.Seed, uint64(rank), noiseLane+8*uint64(k)+4, base))
		total += n.AmpUS * -math.Log(1-u)
	}
	return total
}

// Tile returns the (multiplier, extra µs) pair of one tile — the shape
// wavefront.Schedule.Tile expects (a method value of this function is
// what apps wires in).
func (g *Generator) Tile(rank, sweep, tile int) (mul, extraUS float64) {
	return g.TileMul(rank, sweep, tile), g.TileNoise(rank, sweep, tile)
}

// pack folds the (sweep, tile) coordinates into one hash input word.
// Tiles per sweep are bounded far below 2³², so the fold is injective
// for every reachable schedule.
func pack(sweep, tile int) uint64 {
	return uint64(sweep)<<32 | uint64(uint32(tile))
}

// hash is a splitmix64-style mix of a seed and three coordinate words.
// It is the sole source of randomness in the package: stateless, so
// every sample is independently addressable.
func hash(seed, a, b, c uint64) uint64 {
	z := seed ^ 0x9e3779b97f4a7c15
	z = sm64(z ^ a*0xbf58476d1ce4e5b9)
	z = sm64(z ^ b*0x94d049bb133111eb)
	z = sm64(z ^ c*0xd6e8feb86659fd93)
	return z
}

func sm64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// u01 maps a hash to the half-open unit interval [0, 1) with 53-bit
// resolution.
func u01(h uint64) float64 {
	return float64(h>>11) * (1.0 / (1 << 53))
}

// normal converts one hash into a standard-normal draw via Box-Muller;
// the second uniform comes from re-mixing the first hash, keeping the
// draw a function of a single coordinate hash.
func normal(h uint64) float64 {
	u1 := u01(h)
	u2 := u01(sm64(h))
	// Guard the log: u1 == 0 happens with probability 2⁻⁵³.
	if u1 == 0 {
		u1 = 0x1p-53
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
