// Package core implements the paper's primary contribution: the
// plug-and-play re-usable LogGP performance model for MPI-based pipelined
// wavefront computations (paper Section 4, Tables 5 and 6).
//
// A wavefront application is specified by a small set of input parameters
// (Table 3): the problem grid, the per-cell computation times Wg and
// Wg,pre, the tile height Htile, the sweep-structure parameters nsweeps,
// nfull and ndiag, the boundary message sizes, and the inter-iteration
// operation Tnonwavefront. Given those inputs plus a machine description,
// Evaluate predicts the execution time of the application on any number of
// processors — including multi-core nodes with shared-bus contention — via
// equations (r1a)–(r5) and the Table 6 extensions.
//
// All model times are in microseconds.
package core

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/logp"
	"repro/internal/machine"
)

// Env carries the evaluation context into application callbacks such as
// NonWavefront.
type Env struct {
	Machine machine.Machine
	Dec     grid.Decomposition
	Htile   int
}

// P returns the total processor (core) count of the evaluation.
func (e Env) P() int { return e.Dec.P() }

// App is the plug-and-play model's application parameter set (paper
// Table 3). The sweep-structure parameters may be given directly
// (NSweeps/NFull/NDiag) or derived from a sweep corner sequence with
// FromCorners.
type App struct {
	Name string

	// Grid is the problem size Nx × Ny × Nz.
	Grid grid.Grid

	// WgPre is the computation time per grid point performed before the
	// boundary receives (zero for codes without pre-calculation), and Wg
	// the computation time per grid point for all angles after the
	// receives, both in µs.
	WgPre, Wg float64

	// Htile is the tile height in cells. For Sweep3D this is the effective
	// height mk × mmi/mmo (Section 4.1).
	Htile int

	// NSweeps, NFull and NDiag are the sweep-structure parameters: the
	// number of sweeps per iteration, the number that must fully complete
	// before the next sweep (or iteration end), and the number that must
	// complete at the second corner processor on the wavefront diagonal.
	NSweeps, NFull, NDiag int

	// EWBytes and NSBytes return the east-west and north-south boundary
	// message sizes in bytes for a given decomposition and tile height.
	EWBytes func(dec grid.Decomposition, htile int) int
	NSBytes func(dec grid.Decomposition, htile int) int

	// NonWavefront returns Tnonwavefront, the per-iteration time of the
	// operations between iterations (all-reduce, stencil, ...), in µs.
	// A nil NonWavefront contributes zero.
	NonWavefront func(e Env) float64

	// Iterations is the number of wavefront iterations per time step.
	Iterations int
}

// Validate reports parameter errors.
func (a App) Validate() error {
	switch {
	case a.Grid.Nx <= 0 || a.Grid.Ny <= 0 || a.Grid.Nz <= 0:
		return fmt.Errorf("core: app %q has invalid grid %v", a.Name, a.Grid)
	case !(a.Wg >= 0 && a.WgPre >= 0) || math.IsInf(a.Wg, 1) || math.IsInf(a.WgPre, 1): // NaN fails >= 0
		return fmt.Errorf("core: app %q has per-cell work Wg=%v WgPre=%v, want finite and non-negative",
			a.Name, a.Wg, a.WgPre)
	case a.Htile <= 0:
		return fmt.Errorf("core: app %q has invalid Htile %d", a.Name, a.Htile)
	case a.NSweeps <= 0:
		return fmt.Errorf("core: app %q has invalid nsweeps %d", a.Name, a.NSweeps)
	case a.NFull < 0 || a.NDiag < 0 || a.NFull+a.NDiag > 2*a.NSweeps:
		return fmt.Errorf("core: app %q has inconsistent nfull=%d ndiag=%d", a.Name, a.NFull, a.NDiag)
	case a.EWBytes == nil || a.NSBytes == nil:
		return fmt.Errorf("core: app %q is missing message size functions", a.Name)
	case a.Iterations <= 0:
		return fmt.Errorf("core: app %q has invalid iteration count %d", a.Name, a.Iterations)
	}
	return nil
}

// WithHtile returns a copy of the app with a different tile height
// (Section 5.1's application-design parameter).
func (a App) WithHtile(h int) App {
	a.Htile = h
	return a
}

// WithSweepStructure returns a copy of the app with a different sweep
// precedence structure (Section 5.5's sweep re-design evaluation).
func (a App) WithSweepStructure(nsweeps, nfull, ndiag int) App {
	a.NSweeps, a.NFull, a.NDiag = nsweeps, nfull, ndiag
	return a
}

// FromCorners fills the sweep-structure parameters from a sweep origin
// corner sequence, using the transition classification that the simulator's
// emergent behaviour follows (see internal/wavefront).
func (a App) FromCorners(corners []grid.Corner) App {
	a.NSweeps = len(corners)
	a.NFull, a.NDiag = 0, 0
	for k := 0; k+1 < len(corners); k++ {
		switch {
		case corners[k+1] == corners[k]:
		case corners[k+1] == corners[k].Opposite():
			a.NFull++
		default:
			a.NDiag++
		}
	}
	a.NFull++ // final sweep completes fully before the iteration ends
	return a
}

// Options control model variants for ablation studies.
type Options struct {
	// SyncTerms adds the handshake back-propagation synchronization terms
	// of the previous SP/2 model ((m−1)L on the diagonal fill and
	// (m−1)L + (n−2)L on the full fill; paper Section 4.2 notes these are
	// negligible on the XT4 and omits them).
	SyncTerms bool
	// NoContention disables the Table 6 shared-bus contention terms.
	NoContention bool
	// ForceOffNode evaluates all communication with the off-node model
	// even on multi-core nodes (the Section 4.2 one-core-per-node model).
	ForceOffNode bool
}

// Report is the model's output for one configuration.
type Report struct {
	App     string
	Machine string
	P       int // total cores
	N, M    int // processor array shape

	// Per-iteration components, µs.
	W, WPre            float64 // per-tile work (r1b, r1a)
	TDiagFill          float64 // equation (r3a)
	TFullFill          float64 // equation (r3b)
	TStack             float64 // equation (r4)
	TNonWavefront      float64
	TimePerIteration   float64 // equation (r5)
	FillTimePerIter    float64 // ndiag·Tdiagfill + nfull·Tfullfill
	ComputePerIter     float64 // computation component of the critical path
	CommPerIter        float64 // communication component (TimePerIteration − ComputePerIter)
	MsgBytesEW, MsgNSz int

	// Totals over all iterations, µs.
	Total float64
}

// TotalSeconds returns the total runtime in seconds.
func (r Report) TotalSeconds() float64 { return r.Total / 1e6 }

// Model couples an application with a machine for evaluation.
type Model struct {
	App     App
	Machine machine.Machine
	Opts    Options
}

// New returns a model of app on mach with default options.
func New(app App, mach machine.Machine) *Model {
	return &Model{App: app, Machine: mach}
}

// Evaluate predicts the application's runtime on an n × m processor array.
func (mo *Model) Evaluate(dec grid.Decomposition) (Report, error) {
	if err := mo.App.Validate(); err != nil {
		return Report{}, err
	}
	if err := mo.Machine.Validate(); err != nil {
		return Report{}, err
	}
	if dec.Grid != mo.App.Grid {
		return Report{}, fmt.Errorf("core: decomposition grid %v does not match app grid %v",
			dec.Grid, mo.App.Grid)
	}
	return mo.evaluate(dec, vectorDiag), nil
}

// EvaluateP predicts runtime on p cores using the most-square decomposition.
func (mo *Model) EvaluateP(p int) (Report, error) {
	dec, err := grid.SquareDecomposition(mo.App.Grid, p)
	if err != nil {
		return Report{}, err
	}
	return mo.Evaluate(dec)
}

// evaluate runs the model with vec as StartP's vector kernel (see startP).
func (mo *Model) evaluate(dec grid.Decomposition, vec diagFunc) Report {
	app := mo.App
	mach := mo.Machine
	prm := &mach.Params
	opts := mo.Opts
	n, m := dec.N, dec.M

	w := app.Wg * dec.CellsPerTile(app.Htile)       // (r1b)
	wpre := app.WgPre * dec.CellsPerTile(app.Htile) // (r1a)
	sEW := app.EWBytes(dec, app.Htile)
	sNS := app.NSBytes(dec, app.Htile)

	// Pipeline fills (r3a, r3b) from the StartP recurrence over the
	// canonical sweep from (1,1).
	last := startP(n, m, wpre, w, mo.hops(n, m, sEW, sNS), vec)
	tDiag := last[1] // StartP(1,m), equation (r3a)
	tFull := last[n] // StartP(n,m), equation (r3b)

	// The computation component of the critical path is the model with all
	// communication costs zeroed and no contention; the communication
	// component is the rest (paper Figure 11's breakdown). With every hop
	// cost zero, all cells of an anti-diagonal of the recurrence hold the
	// same value, so the compute-only fills are one scalar per diagonal.
	compDiag, compFull := wpre, wpre
	for k, c := 1, wpre; k <= n+m-2; k++ {
		c += w
		if k == m-1 {
			compDiag = c
		}
		compFull = c
	}

	if opts.SyncTerms {
		// Handshake back-propagation terms of the previous SP/2 model
		// (Table 4 equations s3, s4).
		tDiag += float64(m-1) * prm.L
		tFull += float64(m-1)*prm.L + float64(n-2)*prm.L
	}

	// Steady-state stack processing (r4): all communication off-node, plus
	// Table 6 contention. The east-west (north-south) operations exist
	// only when the processor array has more than one column (row); with
	// both dimensions > 1 every processor is charged all four operations
	// because the blocking sends and receives rate-match the pipeline
	// (paper Section 4.2).
	tiles := float64(dec.TilesPerStack(app.Htile))
	stack := func(prm *logp.Params, contention bool) float64 {
		perTile := w + wpre
		if n > 1 {
			perTile += prm.ReceiveOffNode(sEW) + prm.SendOffNode(sEW)
		}
		if m > 1 {
			perTile += prm.ReceiveOffNode(sNS) + prm.SendOffNode(sNS)
		}
		if contention && n > 1 && m > 1 {
			perTile += mo.contention(*prm, mach, sEW, sNS)
		}
		return perTile*tiles - wpre
	}

	var tNon float64
	if app.NonWavefront != nil {
		tNon = app.NonWavefront(Env{Machine: mach, Dec: dec, Htile: app.Htile})
	}
	iteration := func(tDiag, tFull, tStack float64) float64 {
		return float64(app.NDiag)*tDiag + float64(app.NFull)*tFull +
			float64(app.NSweeps)*tStack + tNon // (r5)
	}

	tStack := stack(prm, !opts.NoContention)
	perIter := iteration(tDiag, tFull, tStack)
	compIter := iteration(compDiag, compFull, stack(&logp.Params{}, false))

	return Report{
		App:              app.Name,
		Machine:          mach.Name,
		P:                dec.P(),
		N:                n,
		M:                m,
		W:                w,
		WPre:             wpre,
		TDiagFill:        tDiag,
		TFullFill:        tFull,
		TStack:           tStack,
		TNonWavefront:    tNon,
		TimePerIteration: perIter,
		FillTimePerIter:  float64(app.NDiag)*tDiag + float64(app.NFull)*tFull,
		ComputePerIter:   compIter,
		CommPerIter:      perIter - compIter,
		MsgBytesEW:       sEW,
		MsgNSz:           sNS,
		Total:            perIter * float64(app.Iterations),
	}
}

// Hops are the communication costs the StartP recurrence (r2b) adds on an
// n × m processor array, indexed by 1-based column i and row j.
type Hops struct {
	// TotalE[i] is TotalComm of the east-going message into column i
	// (i ≥ 2). SendE[i] is the Send of the east-going message out of
	// column i (i < n), exposed when the north message arrives last.
	TotalE, SendE []float64
	// TotalS[j] is TotalComm of the south-going message into row j
	// (j ≥ 2). RecvN[j] is the Receive of that message, exposed when the
	// west message arrives last.
	TotalS, RecvN []float64
}

// NewHops returns zeroed hop tables for an n × m processor array.
func NewHops(n, m int) Hops {
	buf := make([]float64, 2*(n+1)+2*(m+1))
	cols, rows := buf[:2*(n+1)], buf[2*(n+1):]
	return Hops{TotalE: cols[:n+1], SendE: cols[n+1:], TotalS: rows[:m+1], RecvN: rows[m+1:]}
}

// hops tabulates the model's hop costs on an n × m array. Placement follows
// Table 6: each node's cores form a Cx × Cy rectangle of the logical grid,
// so the east-going message into column i is on-chip when i and i−1 share
// a Cx block, and likewise the south-going message into row j.
func (mo *Model) hops(n, m, sEW, sNS int) Hops {
	prm := &mo.Machine.Params
	path := func(k, c int) logp.Path {
		if mo.Opts.ForceOffNode || c == 1 || (k-1)%c == 0 {
			return logp.OffNode
		}
		return logp.OnChip
	}
	var totalE, sendE, totalS, recvN [2]float64
	for _, p := range []logp.Path{logp.OffNode, logp.OnChip} {
		totalE[p], sendE[p] = prm.TotalComm(p, sEW), prm.Send(p, sEW)
		totalS[p], recvN[p] = prm.TotalComm(p, sNS), prm.Receive(p, sNS)
	}
	h := NewHops(n, m)
	for i := 2; i <= n; i++ {
		p := path(i, mo.Machine.Cx)
		h.TotalE[i], h.SendE[i-1] = totalE[p], sendE[p]
	}
	for j := 2; j <= m; j++ {
		p := path(j, mo.Machine.Cy)
		h.TotalS[j], h.RecvN[j] = totalS[p], recvN[p]
	}
	return h
}

// StartP evaluates the StartP recurrence on an n × m processor array with
// StartP(1,1) = origin (r2a) and per-tile work w, and returns the last row:
// last[i] = StartP(i, m) for i in 1..n. Each cell takes the later of its two
// arrivals (r2b):
//
//	west:  ((StartP(i−1, j) + w) + TotalE[i]) + RecvN[j]   (RecvN only if j > 1)
//	north: ((StartP(i, j−1) + w) + TotalS[j]) + SendE[i]   (SendE only if i < n)
//
// The west term is the case where the west message arrives last: the north
// message preceded it but is received after it (blocking receives in
// west-then-north order), so its Receive is exposed. In the north term,
// processor (i, j−1) sent east before sending south, exposing its Send.
//
// The sweep visits the array by anti-diagonals i + j = d. Both of a cell's
// inputs lie on diagonal d−1, so the cells of one diagonal do not depend on
// each other. Two column-indexed buffers hold the previous and the next
// diagonal, swapping roles after each one, so that a diagonal's loads never
// read a slot the same diagonal stores to: a vector loop that computes four
// cells per instruction then runs without store-to-load stalls. Cell (i, m)
// is the west end of diagonal i + m, so each diagonal hands its west end to
// a third array that collects the last row.
//
// On amd64 CPUs with AVX2, the interior cells of each diagonal are computed
// by an assembly kernel, four at a time, with the same operations in the
// same order as the Go loop, so the result is bit-identical. Its VMAXPD
// differs from Go's max only on NaN or on +0 against −0, so StartP takes the
// Go loop whenever origin, w or a hop cost is NaN or has its sign bit set.
func StartP(n, m int, origin, w float64, h Hops) []float64 {
	return startP(n, m, origin, w, h, vectorDiag)
}

// diagFunc computes the interior cells of one anti-diagonal from the
// previous one, whose cell x is the west input and cell x+1 the north input
// of cell x:
//
//	dst[x] = max(((prev[x]+w)+tE[x])+rN[x], ((prev[x+1]+w)+tS[x])+sE[x])
//
// for x < len(dst). prev holds at least len(dst)+1 elements, and every
// other slice at least len(dst).
type diagFunc func(dst, prev, tE, sE, tS, rN []float64, w float64)

// diagGo is the portable diagFunc, and the reference for the vector kernel.
// Cell x's north sum prev[x+1]+w is cell x+1's west sum, so it is added once.
func diagGo(dst, prev, tE, sE, tS, rN []float64, w float64) {
	// Slices of length len(dst) let the compiler drop the loop's bounds checks.
	cur := prev[1 : len(dst)+1]
	tE, sE, tS, rN = tE[:len(dst)], sE[:len(dst)], tS[:len(dst)], rN[:len(dst)]
	west := prev[0] + w
	for x := range dst {
		north := cur[x] + w
		dst[x] = max((west+tE[x])+rN[x], (north+tS[x])+sE[x])
		west = north
	}
}

// vectorExact reports whether origin, w and every hop cost are numbers
// without their sign bit set. Sums of such numbers are never NaN or −0, so
// on them VMAXPD and Go's max agree bit for bit.
func vectorExact(origin, w float64, h Hops) bool {
	// Bit patterns above +Inf's are NaNs or have the sign bit set.
	exact := func(v float64) bool { return math.Float64bits(v) <= 0x7ff0000000000000 }
	if !exact(origin) || !exact(w) {
		return false
	}
	for _, tab := range [...][]float64{h.TotalE, h.SendE, h.TotalS, h.RecvN} {
		for _, v := range tab {
			if !exact(v) {
				return false
			}
		}
	}
	return true
}

// startP is StartP with the vector kernel given: it runs vec when vec is
// not nil and vectorExact holds, and diagGo otherwise.
func startP(n, m int, origin, w float64, h Hops, vec diagFunc) []float64 {
	diag := diagGo
	if vec != nil && vectorExact(origin, w, h) {
		diag = vec
	}
	buf := make([]float64, 3*(n+1)+2*m)
	prev, next, last := buf[:n+1], buf[n+1:2*(n+1)], buf[2*(n+1):3*(n+1)]
	// Along a diagonal j = d − i falls as i rises. Row j's costs are copied
	// to index m − j, so that the kernel reads every table at ascending
	// indices.
	totalS, recvN := buf[3*(n+1):3*(n+1)+m], buf[3*(n+1)+m:]
	for j := 2; j <= m; j++ {
		totalS[m-j], recvN[m-j] = h.TotalS[j], h.RecvN[j]
	}

	prev[1] = origin
	for i := 2; i <= n; i++ { // row 1 has no north neighbour
		prev[i] = (prev[i-1] + w) + h.TotalE[i]
	}
	if m == 1 {
		return prev
	}
	// Diagonal d stores columns up to d − 2; above that both buffers keep
	// row 1, which the next diagonal reads as its north inputs.
	copy(next, prev)
	for d := 3; d <= n+m; d++ { // rows 2..m: cells (i, d−i)
		lo, hi := max(1, d-m), min(n, d-2)
		if hi == n { // no east neighbour: nothing sent east
			j := d - n
			north := (prev[n] + w) + h.TotalS[j]
			if n > 1 {
				north = max(((prev[n-1]+w)+h.TotalE[n])+h.RecvN[j], north)
			}
			next[n] = north
		}
		if a, b := max(lo, 2), min(hi, n-1); a <= b {
			k, o := b-a+1, a+m-d // cell (a+x, d−a−x) reads row costs at o+x
			diag(next[a:a+k], prev[a-1:a+k], h.TotalE[a:a+k], h.SendE[a:a+k],
				totalS[o:o+k], recvN[o:o+k], w)
		}
		if lo == 1 && n > 1 { // no west neighbour: only the north message
			next[1] = ((prev[1] + w) + h.TotalS[d-1]) + h.SendE[1]
		}
		if d > m { // the west end (d−m, m) is in the last row
			last[lo] = next[lo]
		}
		prev, next = next, prev
	}
	return last
}

// contention returns the total Table 6 interference added to the four
// per-tile communication operations: I = odma + size × Gdma per
// interfering DMA on the shared bus.
//
//	1 core per bus:   none
//	2 cores per bus:  I on ReceiveN and SendS (or the EW pair for a 2×1
//	                  core rectangle)
//	c ≥ 4 cores:      (c/4) × I on each Send and Receive
func (mo *Model) contention(prm logp.Params, mach machine.Machine, sEW, sNS int) float64 {
	c := mach.CoresPerBus()
	iOf := func(size int) float64 { return prm.Odma() + float64(size)*prm.Gdma }
	switch {
	case c <= 1:
		return 0
	case c == 2:
		if mach.Cx == 2 {
			return 2 * iOf(sEW)
		}
		return 2 * iOf(sNS)
	default:
		mult := float64(c) / 4
		return mult * 2 * (iOf(sEW) + iOf(sNS))
	}
}

// AllReduceNonWavefront returns a NonWavefront callback performing count
// 8-byte all-reduces (Sweep3D: 2, Chimaera: 1; paper Table 3).
func AllReduceNonWavefront(count int) func(Env) float64 {
	return func(e Env) float64 {
		return float64(count) * e.Machine.Params.AllReduceDouble(e.P(), e.Machine.CoresPerNode)
	}
}

// StencilNonWavefront returns a NonWavefront callback modelling LU's
// four-point stencil between iterations: each rank exchanges one boundary
// message with up to four neighbours and computes wgStencil per local cell.
// The model is a sum of simple terms with the same level of abstraction as
// the all-reduce model (paper Section 4.1).
func StencilNonWavefront(wgStencil float64, bytesPerCell int) func(Env) float64 {
	return func(e Env) float64 {
		prm := e.Machine.Params
		ew := bytesPerCell * e.Dec.CellsPerRankY() * e.Dec.Grid.Nz
		ns := bytesPerCell * e.Dec.CellsPerRankX() * e.Dec.Grid.Nz
		comm := 2*prm.TotalCommOffNode(ew) + 2*prm.TotalCommOffNode(ns)
		comp := wgStencil * float64(e.Dec.CellsPerRankX()) * float64(e.Dec.CellsPerRankY()) * float64(e.Dec.Grid.Nz)
		return comm + comp
	}
}
