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
	"math/bits"

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

// Program returns rank's lazily-generated MPI program for the whole run:
// Iterations × (sweeps × tiles + inter-iteration operations).
func (s *Schedule) Program(rank int) simmpi.Program {
	p := &rankProgram{}
	p.init(s, rank)
	return p
}

// Programs returns the programs of all ranks, indexed by rank. The cursors
// share one allocation.
func (s *Schedule) Programs() []simmpi.Program {
	cur := make([]rankProgram, s.Dec.P())
	ps := make([]simmpi.Program, len(cur))
	for r := range cur {
		cur[r].init(s, r)
		ps[r] = &cur[r]
	}
	return ps
}

// The slots of one tile's operations, in program order: [Wpre] [RecvW]
// [RecvN] [Compute W] [SendE] [SendS], where the west/north/east/south
// roles are relative to the sweep direction (paper Figure 4: LU
// pre-computes before the receives). A rank on the decomposition's edge
// lacks the slots of its missing neighbours; Wpre is present only when
// the schedule has pre-receive work.
const (
	slotPre = iota
	slotRecvW
	slotRecvN
	slotW
	slotSendE
	slotSendS
)

// Indices of rankProgram.nbr.
const (
	nbrW = iota
	nbrN
	nbrE
	nbrS
)

// rankProgram is the lazy program iterator for one rank. Programs for large
// runs have millions of operations, so none is stored: Next builds each
// tile operation from the current sweep's neighbour ranks and the current
// tile's two compute durations.
type rankProgram struct {
	sched *Schedule
	inter []simmpi.Op // the inter-iteration operations in progress; nil outside them

	wpre, w float64 // the current tile's pre- and post-receive compute durations

	rank    int32
	iter    int32 // current iteration
	sweep   int32 // current sweep within the iteration
	tile    int32 // current tile within the sweep
	interIx int32
	nbr     [4]int32 // the current sweep's W/N/E/S neighbour ranks

	mask uint8 // the slots present in every tile of the current sweep
	rest uint8 // the current tile's slots not yet emitted; zero outside sweeps

	inInter  bool
	convDone bool // convergence all-reduce emitted for this iteration
	done     bool
}

func (p *rankProgram) init(s *Schedule, rank int) {
	*p = rankProgram{sched: s, rank: int32(rank)}
	p.loadSweep()
}

// loadSweep positions the cursor at the first tile of the current sweep:
// it finds the sweep's neighbours, marks the slots present, and loads the
// tile.
func (p *rankProgram) loadSweep() {
	s := p.sched
	c := s.Dec.CoordOf(int(p.rank))
	di, dj := s.Corners[p.sweep].Step()
	p.mask = 1 << slotW
	if s.WPre > 0 {
		p.mask |= 1 << slotPre
	}
	for _, nb := range [...]struct {
		at   grid.Coord
		i    int
		slot uint8
	}{
		{grid.Coord{I: c.I - di, J: c.J}, nbrW, slotRecvW},
		{grid.Coord{I: c.I, J: c.J - dj}, nbrN, slotRecvN},
		{grid.Coord{I: c.I + di, J: c.J}, nbrE, slotSendE},
		{grid.Coord{I: c.I, J: c.J + dj}, nbrS, slotSendS},
	} {
		if s.Dec.Contains(nb.at) {
			p.nbr[nb.i] = int32(s.Dec.Rank(nb.at))
			p.mask |= 1 << nb.slot
		}
	}
	p.tile = 0
	p.loadTile()
}

// loadTile starts the current tile: every slot of the sweep is pending,
// and the compute durations are the schedule's constants, or their product
// with the Tile cost function's multiplier, plus its additive term on the
// post-receive compute.
func (p *rankProgram) loadTile() {
	s := p.sched
	p.rest = p.mask
	if s.Tile == nil {
		p.wpre, p.w = s.WPre, s.W
		return
	}
	mul, extra := s.Tile(int(p.rank), int(p.sweep), int(p.tile))
	if mul < 0 {
		mul = 0
	}
	if extra < 0 {
		extra = 0
	}
	p.wpre = s.WPre * mul
	p.w = s.W*mul + extra
}

// Next implements simmpi.Program. The within-tile case is the hot path —
// the simulator calls Next once per operation — so it is split from the
// tile/sweep/iteration bookkeeping.
func (p *rankProgram) Next() (simmpi.Op, bool) {
	if p.rest == 0 {
		return p.nextSlow()
	}
	slot := bits.TrailingZeros8(p.rest)
	p.rest &= p.rest - 1
	switch slot {
	case slotPre:
		return simmpi.Compute(p.wpre), true
	case slotRecvW:
		return simmpi.Recv(int(p.nbr[nbrW])), true
	case slotRecvN:
		return simmpi.Recv(int(p.nbr[nbrN])), true
	case slotW:
		return simmpi.Compute(p.w), true
	case slotSendE:
		return simmpi.Send(int(p.nbr[nbrE]), p.sched.BytesEW), true
	default:
		return simmpi.Send(int(p.nbr[nbrS]), p.sched.BytesNS), true
	}
}

// nextSlow advances tile, sweep and iteration bookkeeping and emits the
// inter-iteration operations.
func (p *rankProgram) nextSlow() (simmpi.Op, bool) {
	s := p.sched
	if p.done {
		return simmpi.Op{}, false
	}
	if p.inInter {
		if int(p.interIx) < len(p.inter) {
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
		p.inter = nil
		p.iter++
		if int(p.iter) >= s.Iterations {
			p.done = true
			return simmpi.Op{}, false
		}
		p.sweep = 0
		p.loadSweep()
		return p.Next()
	}
	// Tile finished.
	p.tile++
	if int(p.tile) < s.TilesPerStack() {
		p.loadTile()
		return p.Next()
	}
	// Sweep finished.
	p.sweep++
	if int(p.sweep) < len(s.Corners) {
		p.loadSweep()
		return p.Next()
	}
	// Iteration finished: run inter-iteration operations (possibly none),
	// then the convergence all-reduce if one is configured.
	p.inInter = true
	p.interIx = 0
	p.convDone = false
	if s.InterOps != nil {
		p.inter = s.InterOps(int(p.rank))
	}
	return p.nextSlow()
}

// AllReduceInter returns an InterOps function performing count 8-byte
// all-reduces, the Tnonwavefront of Sweep3D (count = 2) and Chimaera
// (count = 1), per paper Table 3. Every rank gets the same slice, built
// once; programs only read it.
func AllReduceInter(count int) func(rank int) []simmpi.Op {
	ops := make([]simmpi.Op, count)
	for i := range ops {
		ops[i] = simmpi.AllReduce(8)
	}
	return func(int) []simmpi.Op { return ops }
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
