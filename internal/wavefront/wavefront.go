// Package wavefront generates per-rank MPI programs for pipelined wavefront
// computations with arbitrary sweep structures, for execution on the
// discrete-event simulator (internal/simmpi).
//
// A wavefront application is described by the origin corner of each sweep
// in an iteration (paper Figure 2) plus per-tile compute times and boundary
// message sizes. The paper's sweep-precedence behaviour — which sweeps must
// fully complete, which must reach the main-diagonal corner, and which are
// fully pipelined before the next sweep begins (parameters nfull and ndiag,
// Section 4.1) — is NOT encoded explicitly: it emerges from program order
// and blocking MPI semantics, exactly as it does in the real codes. The
// Classify function recovers (nfull, ndiag) from a corner sequence and is
// verified against paper Table 3 in the tests.
package wavefront

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/simmpi"
)

// Standard per-iteration sweep corner sequences of the three benchmark
// codes (paper Figure 2, using grid.Corner naming where SE = (n,m),
// NE = (n,1), SW = (1,m), NW = (1,1)).
//
// LU performs a forward and a backward sweep. Sweep3D performs eight
// octant sweeps in pairs that share an origin corner: (n,m), (n,1), (1,m),
// (1,1). Chimaera interleaves its middle corner pairs — octant pairs
// {3,5} and {4,6} alternate origins — which is what raises its nfull from
// 2 to 4 (Section 2.2).
func LUCorners() []grid.Corner { return []grid.Corner{grid.NW, grid.SE} }

// Sweep3DCorners returns the Sweep3D octant origin sequence.
func Sweep3DCorners() []grid.Corner {
	return []grid.Corner{grid.SE, grid.SE, grid.NE, grid.NE, grid.SW, grid.SW, grid.NW, grid.NW}
}

// ChimaeraCorners returns the Chimaera octant origin sequence.
func ChimaeraCorners() []grid.Corner {
	return []grid.Corner{grid.SE, grid.SE, grid.NE, grid.SW, grid.NE, grid.SW, grid.NW, grid.NW}
}

// PipelinedGroupCorners expands a per-iteration corner sequence into the
// Section 5.5 energy-group re-design: each run of same-corner sweeps is
// repeated for all groups before moving to the next corner. For Sweep3D's
// corner pairs and 30 groups this yields 240 sweeps whose derived structure
// is nfull = 2, ndiag = 2 — exactly the model inputs the paper uses to
// project the re-design.
func PipelinedGroupCorners(corners []grid.Corner, groups int) []grid.Corner {
	var out []grid.Corner
	for i := 0; i < len(corners); {
		j := i
		for j < len(corners) && corners[j] == corners[i] {
			j++
		}
		for g := 0; g < groups; g++ {
			out = append(out, corners[i:j]...)
		}
		i = j
	}
	return out
}

// SequentialGroupCorners expands a per-iteration corner sequence into the
// conventional design: the full sweep sequence repeated once per group.
func SequentialGroupCorners(corners []grid.Corner, groups int) []grid.Corner {
	var out []grid.Corner
	for g := 0; g < groups; g++ {
		out = append(out, corners...)
	}
	return out
}

// Transition classifies how one sweep hands off to the next.
type Transition int

// Transition kinds, in increasing pipeline-fill cost.
const (
	// Pipelined: the next sweep shares the current sweep's origin corner;
	// its origin rank starts as soon as it finishes its own stack.
	Pipelined Transition = iota
	// Diagonal: the next sweep originates at a corner on the current
	// sweep's wavefront diagonal; the fill to that corner (Tdiagfill) is
	// exposed on the critical path.
	Diagonal
	// Full: the next sweep originates at the current sweep's terminal
	// corner, so the current sweep completes everywhere first (Tfullfill).
	Full
)

// ClassifyTransition determines the handoff kind between consecutive sweeps
// with origin corners cur and next.
func ClassifyTransition(cur, next grid.Corner) Transition {
	switch next {
	case cur:
		return Pipelined
	case cur.Opposite():
		return Full
	default:
		// The two remaining corners lie on the sweep's anti-diagonal; the
		// paper's Tdiagfill (equation r3a) covers both for the (near-)square
		// decompositions of interest.
		return Diagonal
	}
}

// Classify derives the plug-and-play model's sweep-structure parameters
// (nsweeps, nfull, ndiag — paper Table 3) from a corner sequence. The final
// sweep always counts towards nfull: it must fully complete before the
// iteration ends.
func Classify(corners []grid.Corner) (nsweeps, nfull, ndiag int) {
	nsweeps = len(corners)
	if nsweeps == 0 {
		return 0, 0, 0
	}
	for k := 0; k+1 < len(corners); k++ {
		switch ClassifyTransition(corners[k], corners[k+1]) {
		case Full:
			nfull++
		case Diagonal:
			ndiag++
		}
	}
	nfull++ // the last sweep completes fully before the iteration ends
	return nsweeps, nfull, ndiag
}

// Schedule describes the complete per-iteration structure of a wavefront
// application, sufficient to generate every rank's MPI program.
type Schedule struct {
	Dec     grid.Decomposition
	Corners []grid.Corner // origin corner of each sweep in order

	Htile int // tile height in cells (effective: mk × mmi/mmo for Sweep3D)

	// WPre and W are the per-tile pre-receive and post-receive compute
	// times in µs: Wg,pre × Htile × Nx/n × Ny/m and Wg × Htile × Nx/n × Ny/m
	// (equations r1a, r1b). They are per-tile, so the generator does not
	// need to know Wg itself.
	WPre, W float64

	// BytesEW and BytesNS are the boundary message sizes exchanged in the
	// sweep direction's east-west and north-south directions (Table 3).
	BytesEW, BytesNS int

	// Iterations is the number of wavefront iterations to run.
	Iterations int

	// InterOps, if non-nil, returns the operations a rank performs between
	// iterations (Tnonwavefront): e.g. two 8-byte all-reduces for Sweep3D,
	// one for Chimaera, or a stencil exchange for LU.
	InterOps func(rank int) []simmpi.Op

	// ConvBytes, when positive, appends a per-iteration convergence
	// all-reduce of that many bytes after the inter-iteration operations —
	// the global residual check that ends every LU iteration and
	// accumulates Sweep3D/Chimaera sums. ConvAlg selects its execution:
	// AlgAuto uses the closed-form exchange of paper equation (9), AlgRing
	// and AlgRecDouble run the simulated algorithms whose point-to-point
	// constituents contend for buses and interconnect links. Zero ConvBytes
	// (the default) changes nothing: existing schedules are untouched.
	ConvBytes int
	ConvAlg   simmpi.CollAlg

	// Tile, if non-nil, makes per-tile compute cost a function instead
	// of a constant: for each (rank, sweep, tile) it returns a
	// multiplier applied to both WPre and W and an additive extra in µs
	// added to the post-receive compute (workload imbalance and OS
	// noise — see internal/workload). It must be a pure function of its
	// arguments: programs may be re-generated and replayed, and shards
	// evaluate ranks in nondeterministic wall-clock order. A nil Tile —
	// or one returning exactly (1, 0) everywhere — leaves the schedule
	// bit-identical to the constant-cost path. Negative results are
	// clamped to zero: simulated time cannot run backwards.
	Tile func(rank, sweep, tile int) (mul, extraUS float64)
}

// Validate reports configuration errors.
func (s *Schedule) Validate() error {
	if len(s.Corners) == 0 {
		return fmt.Errorf("wavefront: schedule has no sweeps")
	}
	if s.Htile <= 0 {
		return fmt.Errorf("wavefront: invalid Htile %d", s.Htile)
	}
	if s.Iterations <= 0 {
		return fmt.Errorf("wavefront: invalid iteration count %d", s.Iterations)
	}
	if s.W < 0 || s.WPre < 0 {
		return fmt.Errorf("wavefront: negative per-tile work (W=%v, Wpre=%v)", s.W, s.WPre)
	}
	if s.BytesEW < 0 || s.BytesNS < 0 {
		return fmt.Errorf("wavefront: negative message size")
	}
	if s.ConvBytes < 0 {
		return fmt.Errorf("wavefront: negative convergence all-reduce size %d", s.ConvBytes)
	}
	if s.ConvBytes > 0 && !simmpi.ValidAllReduceAlg(s.ConvAlg) {
		return fmt.Errorf("wavefront: convergence all-reduce cannot use algorithm %d", s.ConvAlg)
	}
	return nil
}

// TilesPerStack returns the number of tiles per sweep per rank, Nz/Htile.
func (s *Schedule) TilesPerStack() int { return s.Dec.TilesPerStack(s.Htile) }

// sweepOps builds the per-tile operation template of one rank for one
// sweep: [Wpre] [RecvW] [RecvN] [Compute W] [SendE] [SendS], where the
// west/north/east/south roles are relative to the sweep direction
// (paper Figure 4: LU pre-computes before the receives).
func (s *Schedule) sweepOps(rank int, corner grid.Corner) []simmpi.Op {
	c := s.Dec.CoordOf(rank)
	di, dj := corner.Step()
	ops := make([]simmpi.Op, 0, 6)
	if s.WPre > 0 {
		ops = append(ops, simmpi.Compute(s.WPre))
	}
	if w := (grid.Coord{I: c.I - di, J: c.J}); s.Dec.Contains(w) {
		ops = append(ops, simmpi.Recv(s.Dec.Rank(w)))
	}
	if n := (grid.Coord{I: c.I, J: c.J - dj}); s.Dec.Contains(n) {
		ops = append(ops, simmpi.Recv(s.Dec.Rank(n)))
	}
	ops = append(ops, simmpi.Compute(s.W))
	if e := (grid.Coord{I: c.I + di, J: c.J}); s.Dec.Contains(e) {
		ops = append(ops, simmpi.Send(s.Dec.Rank(e), s.BytesEW))
	}
	if so := (grid.Coord{I: c.I, J: c.J + dj}); s.Dec.Contains(so) {
		ops = append(ops, simmpi.Send(s.Dec.Rank(so), s.BytesNS))
	}
	return ops
}

// Program returns rank's lazily-generated MPI program for the whole run:
// Iterations × (sweeps × tiles + inter-iteration operations).
func (s *Schedule) Program(rank int) simmpi.Program {
	p := &rankProgram{sched: s, rank: rank}
	p.loadSweep()
	return p
}

// rankProgram is the lazy program iterator for one rank. Programs for large
// runs have millions of operations; only the current sweep's 6-op template
// is materialised.
type rankProgram struct {
	sched *Schedule
	rank  int

	iter  int // current iteration
	sweep int // current sweep within the iteration
	tile  int // current tile within the sweep
	stage int // index into tileOps

	tileOps  []simmpi.Op
	inter    []simmpi.Op
	interIx  int
	inInter  bool
	convDone bool // convergence all-reduce emitted for this iteration
	done     bool

	// preIx and wIx locate the pre-receive and post-receive compute ops
	// inside tileOps when a Tile cost function is attached; -1 when
	// absent. sweepOps allocates the template fresh per sweep, so
	// patching durations in place is safe.
	preIx, wIx int
}

func (p *rankProgram) loadSweep() {
	p.tileOps = p.sched.sweepOps(p.rank, p.sched.Corners[p.sweep])
	p.tile = 0
	p.stage = 0
	if p.sched.Tile != nil {
		p.preIx, p.wIx = -1, -1
		for i := range p.tileOps {
			if p.tileOps[i].Kind == simmpi.OpCompute {
				if p.wIx >= 0 { // second compute: the first was the pre-compute
					p.preIx, p.wIx = p.wIx, i
				} else {
					p.wIx = i
				}
			}
		}
		p.patchTile()
	}
}

// patchTile rewrites the current tile's compute durations from the
// schedule's Tile cost function.
func (p *rankProgram) patchTile() {
	mul, extra := p.sched.Tile(p.rank, p.sweep, p.tile)
	if mul < 0 {
		mul = 0
	}
	if extra < 0 {
		extra = 0
	}
	if p.preIx >= 0 {
		p.tileOps[p.preIx].Dur = p.sched.WPre * mul
	}
	p.tileOps[p.wIx].Dur = p.sched.W*mul + extra
}

// Next implements simmpi.Program. The within-tile case is the hot path —
// the simulator calls Next once per operation — so it is split from the
// tile/sweep/iteration bookkeeping.
func (p *rankProgram) Next() (simmpi.Op, bool) {
	if p.stage < len(p.tileOps) && !p.inInter && !p.done {
		op := p.tileOps[p.stage]
		p.stage++
		return op, true
	}
	return p.nextSlow()
}

// nextSlow advances tile, sweep and iteration bookkeeping.
func (p *rankProgram) nextSlow() (simmpi.Op, bool) {
	s := p.sched
	for {
		if p.done {
			return simmpi.Op{}, false
		}
		if p.inInter {
			if p.interIx < len(p.inter) {
				op := p.inter[p.interIx]
				p.interIx++
				return op, true
			}
			// The convergence all-reduce is synthesized from iterator state
			// rather than appended to the InterOps slice: the slice is
			// callee-owned, and appending would allocate once per rank per
			// iteration.
			if s.ConvBytes > 0 && !p.convDone {
				p.convDone = true
				return simmpi.AllReduceAlg(s.ConvBytes, s.ConvAlg), true
			}
			p.inInter = false
			p.iter++
			if p.iter >= s.Iterations {
				p.done = true
				return simmpi.Op{}, false
			}
			p.sweep = 0
			p.loadSweep()
		}
		if p.stage < len(p.tileOps) {
			op := p.tileOps[p.stage]
			p.stage++
			return op, true
		}
		// Tile finished.
		p.tile++
		p.stage = 0
		if p.tile < s.TilesPerStack() {
			if s.Tile != nil {
				p.patchTile()
			}
			continue
		}
		// Sweep finished.
		p.sweep++
		if p.sweep < len(s.Corners) {
			p.loadSweep()
			continue
		}
		// Iteration finished: run inter-iteration operations (possibly none),
		// then the convergence all-reduce if one is configured.
		p.inInter = true
		p.interIx = 0
		p.convDone = false
		if s.InterOps != nil {
			p.inter = s.InterOps(p.rank)
		} else {
			p.inter = nil
		}
	}
}

// Programs returns the programs of all ranks, indexed by rank.
func (s *Schedule) Programs() []simmpi.Program {
	ps := make([]simmpi.Program, s.Dec.P())
	for r := range ps {
		ps[r] = s.Program(r)
	}
	return ps
}

// AllReduceInter returns an InterOps function performing count 8-byte
// all-reduces, the Tnonwavefront of Sweep3D (count = 2) and Chimaera
// (count = 1), per paper Table 3.
func AllReduceInter(count int) func(rank int) []simmpi.Op {
	return func(int) []simmpi.Op {
		ops := make([]simmpi.Op, count)
		for i := range ops {
			ops[i] = simmpi.AllReduce(8)
		}
		return ops
	}
}

// StencilInter returns an InterOps function modelling LU's four-point
// stencil computation between iterations (paper Section 4.1): each rank
// exchanges one boundary message with each existing neighbour and computes
// over its local cells. Receives are posted after all sends so the exchange
// cannot deadlock under rendezvous: sends of at most the eager threshold
// complete locally, and larger sends are gated only by the matching
// receives, which every neighbour eventually posts in a compatible order.
// For safety the generated exchange uses eager-sized messages per neighbour
// pair whenever possible; larger stencil halos are split into eager chunks.
func StencilInter(dec grid.Decomposition, computePerRank float64, bytesEW, bytesNS int) func(rank int) []simmpi.Op {
	return func(rank int) []simmpi.Op {
		c := dec.CoordOf(rank)
		var ops []simmpi.Op
		type nb struct {
			coord grid.Coord
			bytes int
		}
		nbs := []nb{
			{grid.Coord{I: c.I - 1, J: c.J}, bytesEW},
			{grid.Coord{I: c.I + 1, J: c.J}, bytesEW},
			{grid.Coord{I: c.I, J: c.J - 1}, bytesNS},
			{grid.Coord{I: c.I, J: c.J + 1}, bytesNS},
		}
		appendChunked := func(mk func(peer, bytes int) simmpi.Op, peer, bytes int) {
			for bytes > 0 {
				n := bytes
				if n > 1024 {
					n = 1024
				}
				ops = append(ops, mk(peer, n))
				bytes -= n
			}
		}
		for _, b := range nbs {
			if dec.Contains(b.coord) {
				appendChunked(func(p, n int) simmpi.Op { return simmpi.Send(p, n) }, dec.Rank(b.coord), b.bytes)
			}
		}
		for _, b := range nbs {
			if dec.Contains(b.coord) {
				appendChunked(func(p, n int) simmpi.Op { return simmpi.Recv(p) }, dec.Rank(b.coord), b.bytes)
			}
		}
		ops = append(ops, simmpi.Compute(computePerRank))
		return ops
	}
}
