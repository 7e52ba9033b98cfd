package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/wavefront"
)

// testApp returns a transport-like app with simple parameters.
func testApp(g grid.Grid, htile int) App {
	return App{
		Name:  "test",
		Grid:  g,
		Wg:    0.7,
		WgPre: 0,
		Htile: htile,
		EWBytes: func(dec grid.Decomposition, h int) int {
			return 8 * h * 6 * dec.CellsPerRankY()
		},
		NSBytes: func(dec grid.Decomposition, h int) int {
			return 8 * h * 6 * dec.CellsPerRankX()
		},
		NonWavefront: AllReduceNonWavefront(2),
		Iterations:   1,
	}.FromCorners(wavefront.Sweep3DCorners())
}

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestValidate(t *testing.T) {
	app := testApp(grid.Cube(32), 2)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := app
	bad.Grid = grid.Grid{}
	if bad.Validate() == nil {
		t.Error("invalid grid accepted")
	}
	bad = app
	bad.Htile = 0
	if bad.Validate() == nil {
		t.Error("zero Htile accepted")
	}
	bad = app
	bad.NSweeps = 0
	if bad.Validate() == nil {
		t.Error("zero sweeps accepted")
	}
	bad = app
	bad.EWBytes = nil
	if bad.Validate() == nil {
		t.Error("missing message size function accepted")
	}
	bad = app
	bad.Wg = -1
	if bad.Validate() == nil {
		t.Error("negative Wg accepted")
	}
	bad = app
	bad.Iterations = 0
	if bad.Validate() == nil {
		t.Error("zero iterations accepted")
	}
	bad = app
	bad.NFull = -1
	if bad.Validate() == nil {
		t.Error("negative nfull accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = app
		bad.Wg = v
		if bad.Validate() == nil {
			t.Errorf("Wg = %v accepted", v)
		}
		bad = app
		bad.WgPre = v
		if bad.Validate() == nil {
			t.Errorf("WgPre = %v accepted", v)
		}
		if _, err := New(bad, machine.XT4()).EvaluateP(16); err == nil {
			t.Errorf("EvaluateP with WgPre = %v returned no error", v)
		}
	}
	zero := app
	zero.Wg, zero.WgPre = 0, math.Copysign(0, -1)
	if err := zero.Validate(); err != nil {
		t.Errorf("zero per-cell work rejected: %v", err)
	}
}

func TestFromCornersMatchesWavefrontClassify(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(10) + 1
			cs := make([]grid.Corner, n)
			for i := range cs {
				cs[i] = grid.Corner(r.Intn(4))
			}
			vals[0] = reflect.ValueOf(cs)
		},
	}
	prop := func(cs []grid.Corner) bool {
		app := testApp(grid.Cube(16), 2).FromCorners(cs)
		ns, nf, nd := wavefront.Classify(cs)
		return app.NSweeps == ns && app.NFull == nf && app.NDiag == nd
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestSingleProcessorIsPureComputePlusNonWavefront(t *testing.T) {
	g := grid.NewGrid(16, 16, 8)
	app := testApp(g, 2)
	mach := machine.XT4SingleCore()
	rep, err := New(app, mach).Evaluate(grid.MustDecompose(g, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// One rank: no fills beyond Wpre, Tstack = W × tiles.
	w := app.Wg * 2 * 16 * 16
	wantStack := w * 4 // Nz/Htile = 4 tiles
	if !almostEq(rep.TStack, wantStack) {
		t.Errorf("TStack = %v, want %v", rep.TStack, wantStack)
	}
	want := float64(app.NSweeps)*wantStack + rep.TNonWavefront
	if !almostEq(rep.TimePerIteration, want) {
		t.Errorf("TimePerIteration = %v, want %v", rep.TimePerIteration, want)
	}
}

func TestRecurrenceHandComputed2x2(t *testing.T) {
	// Hand-evaluate equations (r2a)–(r3b) on a 2×2 array with one core per
	// node.
	g := grid.NewGrid(8, 8, 4)
	app := testApp(g, 2)
	mach := machine.XT4SingleCore()
	p := mach.Params
	dec := grid.MustDecompose(g, 2, 2)
	rep, err := New(app, mach).Evaluate(dec)
	if err != nil {
		t.Fatal(err)
	}
	w := app.Wg * 2 * 4 * 4 // Wg × Htile × Nx/n × Ny/m
	sEW := 8 * 2 * 6 * 4
	sNS := 8 * 2 * 6 * 4
	s11 := 0.0
	s21 := s11 + w + p.TotalCommOffNode(sEW)                      // j=1 row: no ReceiveN
	s12 := s11 + w + p.TotalCommOffNode(sNS) + p.SendOffNode(sEW) // i=1: SendE of (1,1) exposed? i<n so yes
	s22 := math.Max(s21+w+p.TotalCommOffNode(sNS),                // north last: (2,1) has no east neighbour
		s12+w+p.TotalCommOffNode(sEW)+p.ReceiveOffNode(sNS)) // west last
	if !almostEq(rep.TDiagFill, s12) {
		t.Errorf("TDiagFill = %v, want StartP(1,2) = %v", rep.TDiagFill, s12)
	}
	if !almostEq(rep.TFullFill, s22) {
		t.Errorf("TFullFill = %v, want StartP(2,2) = %v", rep.TFullFill, s22)
	}
}

func TestTStackFormula(t *testing.T) {
	// Equation (r4): (ReceiveW + ReceiveN + W + SendE + SendS + Wpre)
	// × Nz/Htile − Wpre, with off-node costs.
	g := grid.NewGrid(16, 16, 12)
	app := testApp(g, 3)
	app.WgPre = 0.2
	mach := machine.XT4SingleCore()
	p := mach.Params
	dec := grid.MustDecompose(g, 4, 4)
	rep, err := New(app, mach).Evaluate(dec)
	if err != nil {
		t.Fatal(err)
	}
	w := app.Wg * 3 * 4 * 4
	wpre := app.WgPre * 3 * 4 * 4
	sEW := 8 * 3 * 6 * 4
	sNS := 8 * 3 * 6 * 4
	perTile := p.ReceiveOffNode(sEW) + p.ReceiveOffNode(sNS) + w +
		p.SendOffNode(sEW) + p.SendOffNode(sNS) + wpre
	want := perTile*4 - wpre // 12/3 = 4 tiles
	if !almostEq(rep.TStack, want) {
		t.Errorf("TStack = %v, want %v", rep.TStack, want)
	}
}

func TestEquationR5Composition(t *testing.T) {
	g := grid.NewGrid(16, 16, 8)
	app := testApp(g, 2)
	mach := machine.XT4SingleCore()
	rep, err := New(app, mach).Evaluate(grid.MustDecompose(g, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(app.NDiag)*rep.TDiagFill + float64(app.NFull)*rep.TFullFill +
		float64(app.NSweeps)*rep.TStack + rep.TNonWavefront
	if !almostEq(rep.TimePerIteration, want) {
		t.Errorf("r5 composition broken: %v vs %v", rep.TimePerIteration, want)
	}
	if !almostEq(rep.Total, rep.TimePerIteration*float64(app.Iterations)) {
		t.Errorf("Total = %v", rep.Total)
	}
	if !almostEq(rep.FillTimePerIter, float64(app.NDiag)*rep.TDiagFill+float64(app.NFull)*rep.TFullFill) {
		t.Errorf("FillTimePerIter = %v", rep.FillTimePerIter)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	g := grid.NewGrid(32, 32, 16)
	app := testApp(g, 2)
	for _, mach := range []machine.Machine{machine.XT4SingleCore(), machine.XT4()} {
		rep, err := New(app, mach).EvaluateP(16)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(rep.ComputePerIter+rep.CommPerIter, rep.TimePerIteration) {
			t.Errorf("%s: breakdown %v + %v != %v", mach.Name,
				rep.ComputePerIter, rep.CommPerIter, rep.TimePerIteration)
		}
		if rep.CommPerIter <= 0 || rep.ComputePerIter <= 0 {
			t.Errorf("%s: non-positive components %v/%v", mach.Name, rep.ComputePerIter, rep.CommPerIter)
		}
	}
}

func TestCommShareGrowsWithP(t *testing.T) {
	g := grid.Cube(64)
	app := testApp(g, 2)
	mach := machine.XT4()
	prev := -1.0
	for _, p := range []int{16, 64, 256, 1024} {
		rep, err := New(app, mach).EvaluateP(p)
		if err != nil {
			t.Fatal(err)
		}
		share := rep.CommPerIter / rep.TimePerIteration
		if share <= prev {
			t.Errorf("comm share not increasing at P=%d: %v <= %v", p, share, prev)
		}
		prev = share
	}
}

func TestFillGrowsWithHtileAndCommShrinks(t *testing.T) {
	// Section 5.1: larger Htile → longer pipeline fill but lower per-cell
	// communication cost.
	g := grid.Cube(64)
	mach := machine.XT4()
	rep1, err := New(testApp(g, 1), mach).EvaluateP(64)
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := New(testApp(g, 4), mach).EvaluateP(64)
	if err != nil {
		t.Fatal(err)
	}
	if rep4.TFullFill <= rep1.TFullFill {
		t.Errorf("fill did not grow with Htile: %v vs %v", rep4.TFullFill, rep1.TFullFill)
	}
	if rep4.CommPerIter >= rep1.CommPerIter {
		t.Errorf("comm did not shrink with Htile: %v vs %v", rep4.CommPerIter, rep1.CommPerIter)
	}
}

func TestMoreProcessorsReduceIterationTime(t *testing.T) {
	g := grid.Cube(96)
	app := testApp(g, 2)
	mach := machine.XT4()
	prev := math.Inf(1)
	for _, p := range []int{16, 64, 256, 1024} {
		rep, err := New(app, mach).EvaluateP(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TimePerIteration >= prev {
			t.Errorf("no speedup at P=%d: %v >= %v", p, rep.TimePerIteration, prev)
		}
		prev = rep.TimePerIteration
	}
}

func TestMulticoreContentionOrdering(t *testing.T) {
	// With the same total core count, more cores per shared bus must not
	// run faster (Table 6 contention, Section 5.3).
	g := grid.Cube(64)
	app := testApp(g, 2)
	const p = 256
	var prev float64
	for i, cores := range []int{1, 2, 4, 8, 16} {
		mach, err := machine.XT4MultiCore(cores)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := New(app, mach).EvaluateP(p)
		if err != nil {
			t.Fatal(err)
		}
		stack := rep.TStack
		if i > 0 && stack < prev-1e-9 {
			t.Errorf("Tstack decreased going to %d cores/bus: %v < %v", cores, stack, prev)
		}
		prev = stack
	}
}

func TestBusGroupsRecoverQuadCoreStack(t *testing.T) {
	// A 16-core node with four 4-core bus groups has the same Tstack
	// contention as a quad-core node (Section 5.3).
	g := grid.Cube(64)
	app := testApp(g, 2)
	quad, err := machine.XT4MultiCore(4)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := machine.XT4MultiCoreGrouped(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	repQuad, err := New(app, quad).EvaluateP(256)
	if err != nil {
		t.Fatal(err)
	}
	repGrp, err := New(app, grouped).EvaluateP(256)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(repQuad.TStack, repGrp.TStack) {
		t.Errorf("Tstack: quad %v vs grouped-16 %v", repQuad.TStack, repGrp.TStack)
	}
}

func TestOnChipCommReducesFill(t *testing.T) {
	// Dual-core nodes make half the north-south messages on-chip, which
	// must not increase the fill time relative to all-off-node.
	g := grid.Cube(64)
	app := testApp(g, 2)
	m := New(app, machine.XT4())
	dec := grid.MustDecompose(g, 8, 8)
	full, err := m.Evaluate(dec)
	if err != nil {
		t.Fatal(err)
	}
	m.Opts.ForceOffNode = true
	off, err := m.Evaluate(dec)
	if err != nil {
		t.Fatal(err)
	}
	if full.TFullFill > off.TFullFill+1e-9 {
		t.Errorf("on-chip fill %v exceeds off-node fill %v", full.TFullFill, off.TFullFill)
	}
}

func TestSyncTermsOption(t *testing.T) {
	g := grid.Cube(64)
	app := testApp(g, 2)
	m := New(app, machine.SP2())
	dec := grid.MustDecompose(g, 8, 8)
	plain, err := m.Evaluate(dec)
	if err != nil {
		t.Fatal(err)
	}
	m.Opts.SyncTerms = true
	sync, err := m.Evaluate(dec)
	if err != nil {
		t.Fatal(err)
	}
	wantDiag := plain.TDiagFill + 7*machine.SP2().Params.L
	if !almostEq(sync.TDiagFill, wantDiag) {
		t.Errorf("sync TDiagFill = %v, want %v", sync.TDiagFill, wantDiag)
	}
	wantFull := plain.TFullFill + (7+6)*machine.SP2().Params.L
	if !almostEq(sync.TFullFill, wantFull) {
		t.Errorf("sync TFullFill = %v, want %v", sync.TFullFill, wantFull)
	}
}

func TestNoContentionOption(t *testing.T) {
	g := grid.Cube(64)
	app := testApp(g, 2)
	m := New(app, machine.XT4())
	dec := grid.MustDecompose(g, 8, 8)
	with, err := m.Evaluate(dec)
	if err != nil {
		t.Fatal(err)
	}
	m.Opts.NoContention = true
	without, err := m.Evaluate(dec)
	if err != nil {
		t.Fatal(err)
	}
	if without.TStack >= with.TStack {
		t.Errorf("contention-free stack %v not smaller than %v", without.TStack, with.TStack)
	}
}

func TestEvaluateErrors(t *testing.T) {
	g := grid.Cube(32)
	app := testApp(g, 2)
	m := New(app, machine.XT4())
	if _, err := m.Evaluate(grid.MustDecompose(grid.Cube(16), 2, 2)); err == nil {
		t.Error("mismatched grid accepted")
	}
	bad := app
	bad.Htile = -1
	if _, err := New(bad, machine.XT4()).EvaluateP(4); err == nil {
		t.Error("invalid app accepted")
	}
	badMach := machine.XT4()
	badMach.Cx = 5
	if _, err := New(app, badMach).EvaluateP(4); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestWithHelpers(t *testing.T) {
	app := testApp(grid.Cube(32), 2)
	if got := app.WithHtile(5).Htile; got != 5 {
		t.Errorf("WithHtile = %d", got)
	}
	re := app.WithSweepStructure(240, 2, 2)
	if re.NSweeps != 240 || re.NFull != 2 || re.NDiag != 2 {
		t.Errorf("WithSweepStructure = %+v", re)
	}
	if app.NSweeps != 8 {
		t.Error("WithSweepStructure mutated the receiver")
	}
}

func TestReportUnits(t *testing.T) {
	r := Report{Total: 2 * 86400 * 1e6}
	if !almostEq(r.TotalSeconds(), 2*86400) {
		t.Errorf("TotalSeconds = %v", r.TotalSeconds())
	}
}

func TestStencilNonWavefront(t *testing.T) {
	g := grid.Cube(32)
	fn := StencilNonWavefront(0.1, 40)
	env := Env{Machine: machine.XT4SingleCore(), Dec: grid.MustDecompose(g, 4, 4), Htile: 1}
	got := fn(env)
	p := env.Machine.Params
	ew := 40 * 8 * 32
	comp := 0.1 * 8 * 8 * 32
	want := 4*p.TotalCommOffNode(ew) + comp
	if !almostEq(got, want) {
		t.Errorf("stencil = %v, want %v", got, want)
	}
}

func TestAllReduceNonWavefront(t *testing.T) {
	g := grid.Cube(32)
	env := Env{Machine: machine.XT4(), Dec: grid.MustDecompose(g, 8, 8), Htile: 1}
	got := AllReduceNonWavefront(2)(env)
	want := 2 * machine.XT4().Params.AllReduceDouble(64, 2)
	if !almostEq(got, want) {
		t.Errorf("allreduce non-wavefront = %v, want %v", got, want)
	}
	if env.P() != 64 {
		t.Errorf("Env.P = %d", env.P())
	}
}

func TestDegenerateShapes(t *testing.T) {
	g := grid.NewGrid(64, 4, 16)
	app := testApp(g, 2)
	app.Grid = g
	// 1×P and P×1 pipelines must evaluate without panicking.
	for _, shape := range [][2]int{{8, 1}, {1, 4}, {64, 1}} {
		dec := grid.MustDecompose(g, shape[0], shape[1])
		rep, err := New(app, machine.XT4SingleCore()).Evaluate(dec)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if rep.TimePerIteration <= 0 || math.IsNaN(rep.TimePerIteration) {
			t.Errorf("shape %v: time %v", shape, rep.TimePerIteration)
		}
		if rep.TFullFill < rep.TDiagFill-1e9 {
			t.Errorf("shape %v: full fill %v < diag fill %v", shape, rep.TFullFill, rep.TDiagFill)
		}
	}
}

func TestFullFillAtLeastDiagFill(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Intn(12) + 1)
			vals[1] = reflect.ValueOf(r.Intn(12) + 1)
			vals[2] = reflect.ValueOf(r.Intn(3) + 1)
		},
	}
	prop := func(n, m, htile int) bool {
		g := grid.Cube(48)
		app := testApp(g, htile)
		rep, err := New(app, machine.XT4()).Evaluate(grid.MustDecompose(g, n, m))
		if err != nil {
			return false
		}
		return rep.TFullFill >= rep.TDiagFill-1e-9 && rep.TDiagFill >= 0
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestZeroCommParamsGivePureComputeModel(t *testing.T) {
	g := grid.NewGrid(16, 16, 8)
	app := testApp(g, 2)
	mach := machine.XT4SingleCore()
	mach.Params = logp.Params{Name: "zero"}
	rep, err := New(app, mach).Evaluate(grid.MustDecompose(g, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	w := app.Wg * 2 * 4 * 4
	// Fill to (n,m): 6 hops × w; stack: 4 tiles × w.
	if !almostEq(rep.TFullFill, 6*w) {
		t.Errorf("zero-comm TFullFill = %v, want %v", rep.TFullFill, 6*w)
	}
	if !almostEq(rep.TStack, 4*w) {
		t.Errorf("zero-comm TStack = %v, want %v", rep.TStack, 4*w)
	}
	if rep.CommPerIter != 0 {
		t.Errorf("zero-comm CommPerIter = %v", rep.CommPerIter)
	}
}

// randomModel draws a model and a decomposition: grids and processor arrays
// of every shape including 1×m and n×1, 1–16 cores per node in any bus
// grouping, scaled LogGP parameters (zero included), message sizes on both
// sides of the eager threshold, zero, non-zero and −0 per-cell work, and
// every kind of Tnonwavefront.
func randomModel(r *rand.Rand) (*Model, grid.Decomposition) {
	n, m := r.Intn(24)+1, r.Intn(24)+1
	switch r.Intn(5) {
	case 0:
		n = 1
	case 1:
		m = 1
	}
	g := grid.NewGrid(r.Intn(200)+1, r.Intn(200)+1, r.Intn(60)+1)
	htile := r.Intn(g.Nz) + 1
	if r.Intn(2) == 0 {
		htile = 1 << r.Intn(4)
	}
	app := testApp(g, htile)
	app.Wg = 2 * r.Float64()
	if r.Intn(4) == 0 {
		app.WgPre = r.Float64()
	}
	if r.Intn(50) == 0 {
		app.Wg, app.WgPre = math.Copysign(0, -1), math.Copysign(0, -1)
	}
	ew, ns := r.Intn(100)+1, r.Intn(100)+1
	app.EWBytes = func(dec grid.Decomposition, h int) int { return ew * h * dec.CellsPerRankY() }
	app.NSBytes = func(dec grid.Decomposition, h int) int { return ns * h * dec.CellsPerRankX() }
	switch r.Intn(3) {
	case 0:
		app.NonWavefront = nil
	case 1:
		app.NonWavefront = StencilNonWavefront(r.Float64(), r.Intn(50)+1)
	}
	corners := make([]grid.Corner, r.Intn(8)+1)
	for i := range corners {
		corners[i] = grid.Corner(r.Intn(4))
	}
	app = app.FromCorners(corners)
	app.Iterations = r.Intn(5) + 1

	cores := 1 << r.Intn(5)
	groups := 1 << r.Intn(bits.Len(uint(cores)))
	mach, err := machine.XT4MultiCoreGrouped(cores, groups)
	if err != nil {
		panic(err)
	}
	if r.Intn(4) == 0 {
		mach.Params = logp.SP2()
	}
	scale := func(v float64) float64 {
		if r.Intn(10) == 0 {
			return 0
		}
		return v * 3 * r.Float64()
	}
	p := &mach.Params
	p.G, p.L, p.O, p.H = scale(p.G), scale(p.L), scale(p.O), scale(p.H)
	p.Gcopy, p.Gdma, p.Ochip, p.Ocopy = scale(p.Gcopy), scale(p.Gdma), scale(p.Ochip), scale(p.Ocopy)
	p.Ocopy = math.Min(p.Ocopy, p.Ochip)
	return New(app, mach), grid.MustDecompose(g, n, m)
}

// reportDiff names the first field of a and b whose bits differ, or returns
// "" when the two reports are bit-identical.
func reportDiff(a, b Report) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for k := 0; k < va.NumField(); k++ {
		fa, fb := va.Field(k), vb.Field(k)
		same := fa.Interface() == fb.Interface()
		if fa.Kind() == reflect.Float64 {
			same = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
		}
		if !same {
			return fmt.Sprintf("%s: %v (%#x) vs reference %v (%#x)", va.Type().Field(k).Name,
				fa.Interface(), fa.Interface(), fb.Interface(), fb.Interface())
		}
	}
	return ""
}

// diagPaths are the two ways StartP computes a diagonal's interior: the Go
// loop (no vector kernel) and the vector kernel, when this CPU has one.
var diagPaths = []struct {
	name string
	vec  diagFunc
}{{"go", nil}, {"vector", vectorDiag}}

// eachPath runs f as one subtest per diagonal path. The vector subtest skips
// on a CPU without the kernel, saying so.
func eachPath(t *testing.T, f func(t *testing.T, vec diagFunc)) {
	for _, p := range diagPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.name == "vector" && p.vec == nil {
				t.Skip("no vector kernel: it needs amd64 with AVX2, so only the Go loop is tested here")
			}
			f(t, p.vec)
		})
	}
}

func TestEvaluateBitIdenticalToReference(t *testing.T) {
	eachPath(t, func(t *testing.T, vec diagFunc) {
		r := rand.New(rand.NewSource(13))
		for c := 0; c < 2000; c++ {
			mo, dec := randomModel(r)
			if _, err := mo.Evaluate(dec); err != nil {
				t.Fatalf("case %d: %v", c, err)
			}
			for o := 0; o < 8; o++ {
				mo.Opts = Options{SyncTerms: o&1 != 0, NoContention: o&2 != 0, ForceOffNode: o&4 != 0}
				got := mo.evaluate(dec, vec)
				if d := reportDiff(got, referenceModel(mo, dec)); d != "" {
					t.Fatalf("case %d (%dx%d, %s, %+v): %s", c, dec.N, dec.M, mo.Machine, mo.Opts, d)
				}
			}
		}
	})
}

// rowMajorStartP evaluates (r2a, r2b) cell by cell, row by row, and returns
// the last row.
func rowMajorStartP(n, m int, origin, w float64, h Hops) []float64 {
	prev, cur := make([]float64, n+1), make([]float64, n+1)
	for j := 1; j <= m; j++ {
		for i := 1; i <= n; i++ {
			if i == 1 && j == 1 {
				cur[i] = origin
				continue
			}
			west, north := math.Inf(-1), math.Inf(-1)
			if i > 1 {
				west = cur[i-1] + w + h.TotalE[i]
				if j > 1 {
					west += h.RecvN[j]
				}
			}
			if j > 1 {
				north = prev[i] + w + h.TotalS[j]
				if i < n {
					north += h.SendE[i]
				}
			}
			cur[i] = math.Max(west, north)
		}
		prev, cur = cur, prev
	}
	return prev
}

// randomHops fills hop tables for an n × m array with cost(r) per entry.
func randomHops(r *rand.Rand, n, m int, cost func(r *rand.Rand) float64) Hops {
	h := NewHops(n, m)
	for _, tab := range [][]float64{h.TotalE, h.SendE, h.TotalS, h.RecvN} {
		for k := range tab {
			tab[k] = cost(r)
		}
	}
	return h
}

// firstBitDiff returns the first column i in 1..n where got and want differ
// in their bits, or 0.
func firstBitDiff(got, want []float64, n int) int {
	for i := 1; i <= n; i++ {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return 0
}

func TestStartPLastRow(t *testing.T) {
	// Every entry of the returned row, not only the two fills the model
	// reads, must equal a plain row-major evaluation of (r2a, r2b). Every
	// n, m ≤ 70 covers the vector kernel's four-cell body, tails of 0–3
	// cells, one-cell diagonals, n = 1 and m = 1; some cases have w = 0 or
	// all-zero hop costs, which make the two terms of the max tie.
	eachPath(t, func(t *testing.T, vec diagFunc) {
		r := rand.New(rand.NewSource(5))
		for n := 1; n <= 70; n++ {
			for m := 1; m <= 70; m++ {
				origin, w := r.Float64(), r.Float64()
				if r.Intn(8) == 0 {
					w = 0
				}
				cost := func(r *rand.Rand) float64 { return 10 * r.Float64() }
				if r.Intn(8) == 0 {
					cost = func(*rand.Rand) float64 { return 0 }
				}
				h := randomHops(r, n, m, cost)
				got, want := startP(n, m, origin, w, h, vec), rowMajorStartP(n, m, origin, w, h)
				if i := firstBitDiff(got, want, n); i != 0 {
					t.Fatalf("%dx%d: StartP(%d, m) = %v, want %v", n, m, i, got[i], want[i])
				}
			}
		}
	})
}

func TestStartPGuardsVectorKernel(t *testing.T) {
	// VMAXPD returns its second operand when either is NaN or both are
	// zero, where Go's max returns NaN or +0. Each case below has interior
	// cells whose west term is NaN or +0 while the north term is a number
	// or −0, so an unguarded kernel would return other bits than the Go
	// loop; StartP must return the Go loop's.
	const n, m = 9, 9 // interior diagonals of up to 7 cells: body and tail
	negZero := math.Copysign(0, -1)
	positive := func(*rand.Rand) float64 { return 1 }
	for _, tc := range []struct {
		name string
		set  func(origin, w *float64, h Hops)
	}{
		{"NaN RecvN", func(_, _ *float64, h Hops) { h.RecvN[5] = math.NaN() }},
		{"NaN origin", func(origin, _ *float64, _ Hops) { *origin = math.NaN() }},
		{"NaN w", func(_, w *float64, _ Hops) { *w = math.NaN() }},
		{"-0 but one +0 RecvN", func(origin, w *float64, h Hops) {
			*origin, *w = negZero, negZero
			for _, tab := range [][]float64{h.TotalE, h.SendE, h.TotalS, h.RecvN} {
				for k := range tab {
					tab[k] = negZero
				}
			}
			h.RecvN[5] = 0
		}},
		{"negative TotalS", func(_, _ *float64, h Hops) { h.TotalS[4] = -1 }},
	} {
		origin, w := 1.0, 1.0
		h := randomHops(nil, n, m, positive)
		tc.set(&origin, &w, h)
		if vectorExact(origin, w, h) {
			t.Errorf("%s: vectorExact accepts the input", tc.name)
		}
		got, want := StartP(n, m, origin, w, h), startP(n, m, origin, w, h, nil)
		if i := firstBitDiff(got, want, n); i != 0 {
			t.Errorf("%s: StartP(%d, m) = %v (%#x), want the Go loop's %v (%#x)", tc.name,
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzStartP requires the vector kernel path and the Go loop to return the
// same bits for n, m ≤ 128, any origin and w (NaN, −0 and negative values
// included), and hop costs drawn from a seed: positive in three inputs of
// four, and otherwise sprinkled with zeros, −0, negatives, infinities and
// NaNs.
func FuzzStartP(f *testing.F) {
	f.Add(uint8(7), uint8(9), 0.0, 1.5, int64(1))
	f.Add(uint8(0), uint8(69), math.Copysign(0, -1), 0.0, int64(2))
	f.Add(uint8(69), uint8(0), math.NaN(), -1.0, int64(3))
	f.Add(uint8(127), uint8(127), 3.0, 0.25, int64(4))
	f.Fuzz(func(t *testing.T, nb, mb uint8, origin, w float64, seed int64) {
		if vectorDiag == nil {
			t.Skip("no vector kernel: it needs amd64 with AVX2")
		}
		n, m := int(nb)%128+1, int(mb)%128+1
		r := rand.New(rand.NewSource(seed))
		special := r.Intn(4) == 0
		h := randomHops(r, n, m, func(r *rand.Rand) float64 {
			if special && r.Intn(16) == 0 {
				return [...]float64{0, math.Copysign(0, -1), -r.Float64(), math.Inf(1), math.NaN()}[r.Intn(5)]
			}
			return 10 * r.Float64()
		})
		got, want := startP(n, m, origin, w, h, vectorDiag), startP(n, m, origin, w, h, nil)
		if i := firstBitDiff(got, want, n); i != 0 {
			t.Fatalf("%dx%d: StartP(%d, m) = %v (%#x) on the vector path, %v (%#x) on the Go loop",
				n, m, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	})
}

var startPSink []float64

// BenchmarkStartP times one sweep of a 256 × 512 array (P = 131,072, the
// model scan's largest) on each diagonal path.
func BenchmarkStartP(b *testing.B) {
	const n, m = 256, 512
	r := rand.New(rand.NewSource(1))
	h := randomHops(r, n, m, func(r *rand.Rand) float64 { return 10 * r.Float64() })
	for _, p := range diagPaths {
		b.Run(p.name, func(b *testing.B) {
			if p.name == "vector" && p.vec == nil {
				b.Skip("no vector kernel: it needs amd64 with AVX2")
			}
			for i := 0; i < b.N; i++ {
				startPSink = startP(n, m, 0, 1.5, h, p.vec)
			}
		})
	}
}

func TestEvaluateAllocsIndependentOfP(t *testing.T) {
	mo := New(testApp(grid.Cube(1000), 2), machine.XT4())
	allocs := func(p int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := mo.EvaluateP(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1024), allocs(131072); small != large {
		t.Errorf("EvaluateP allocates %v times at P=1024 but %v at P=131072", small, large)
	}
}

// referenceEvaluate is the cell-by-cell StartP loop the model used before
// its anti-diagonal sweep, kept verbatim as the bit-exact reference for
// evaluate.
func referenceEvaluate(mo *Model, dec grid.Decomposition, prm logp.Params, opts Options) Report {
	app := mo.App
	mach := mo.Machine
	n, m := dec.N, dec.M

	w := app.Wg * dec.CellsPerTile(app.Htile)       // (r1b)
	wpre := app.WgPre * dec.CellsPerTile(app.Htile) // (r1a)
	sEW := app.EWBytes(dec, app.Htile)
	sNS := app.NSBytes(dec, app.Htile)

	// pathE reports whether the east-going message into column i (from
	// i−1) is on-chip; pathS likewise for the south-going message into
	// row j. Placement follows Table 6: each node's cores form a Cx × Cy
	// rectangle of the logical grid.
	onChipE := func(i int) bool {
		if opts.ForceOffNode || mach.Cx == 1 {
			return false
		}
		return (i-1)%mach.Cx != 0 // i and i−1 in the same Cx block
	}
	onChipS := func(j int) bool {
		if opts.ForceOffNode || mach.Cy == 1 {
			return false
		}
		return (j-1)%mach.Cy != 0
	}
	path := func(onChip bool) logp.Path {
		if onChip {
			return logp.OnChip
		}
		return logp.OffNode
	}

	// StartP recurrence (r2a, r2b) over the canonical sweep from (1,1).
	// Row-major dynamic program; only the previous row is retained.
	prev := make([]float64, n+1) // StartP(·, j−1)
	cur := make([]float64, n+1)
	var tDiag, tFull float64
	for j := 1; j <= m; j++ {
		for i := 1; i <= n; i++ {
			if i == 1 && j == 1 {
				cur[i] = wpre // (r2a)
				continue
			}
			// First term of (r2b): the west message arrives last. The
			// north message preceded it but is received after it (blocking
			// receives in west-then-north order), so its Receive cost is
			// exposed — only where a north neighbour exists.
			west := math.Inf(-1)
			if i > 1 {
				t := cur[i-1] + w + prm.TotalComm(path(onChipE(i)), sEW)
				if j > 1 {
					t += prm.Receive(path(onChipS(j)), sNS)
				}
				west = t
			}
			// Second term of (r2b): the north message arrives last;
			// processor (i,j−1) sent east before sending south, exposing
			// its SendE cost — only where an east neighbour exists.
			north := math.Inf(-1)
			if j > 1 {
				t := prev[i] + w + prm.TotalComm(path(onChipS(j)), sNS)
				if i < n {
					t += prm.Send(path(onChipE(i+1)), sEW)
				}
				north = t
			}
			cur[i] = math.Max(west, north)
		}
		if j == m {
			tDiag = cur[1] // StartP(1,m), equation (r3a)
			tFull = cur[n] // StartP(n,m), equation (r3b)
		}
		prev, cur = cur, prev
	}
	if m == 1 {
		// Degenerate single-row array: the "diagonal corner" is the origin.
		tDiag = wpre
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
	perTile := w + wpre
	if n > 1 {
		perTile += prm.ReceiveOffNode(sEW) + prm.SendOffNode(sEW)
	}
	if m > 1 {
		perTile += prm.ReceiveOffNode(sNS) + prm.SendOffNode(sNS)
	}
	if !opts.NoContention && n > 1 && m > 1 {
		perTile += mo.contention(prm, mach, sEW, sNS)
	}
	tStack := perTile*tiles - wpre

	var tNon float64
	if app.NonWavefront != nil {
		tNon = app.NonWavefront(Env{Machine: mach, Dec: dec, Htile: app.Htile})
	}

	perIter := float64(app.NDiag)*tDiag + float64(app.NFull)*tFull +
		float64(app.NSweeps)*tStack + tNon // (r5)

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
		MsgBytesEW:       sEW,
		MsgNSz:           sNS,
		Total:            perIter * float64(app.Iterations),
	}
}

// referenceModel is Evaluate as it was built on referenceEvaluate: one
// recurrence with the machine's parameters and a second one with every
// communication cost zeroed for the compute share.
func referenceModel(mo *Model, dec grid.Decomposition) Report {
	full := referenceEvaluate(mo, dec, mo.Machine.Params, mo.Opts)
	comp := referenceEvaluate(mo, dec, logp.Params{Name: "zero-comm"}, Options{NoContention: true})
	full.ComputePerIter = comp.TimePerIteration
	full.CommPerIter = full.TimePerIteration - comp.TimePerIteration
	return full
}

// ReferenceModel and ReportDiff export the reference and the comparison to
// the external test package.
var (
	ReferenceModel = referenceModel
	ReportDiff     = reportDiff
)
