package stats

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5 + 0.75*x
	}
	a, b := LinearFit(xs, ys)
	if math.Abs(a-2.5) > 1e-12 || math.Abs(b-0.75) > 1e-12 {
		t.Errorf("fit = %v + %v·x", a, b)
	}
}

func TestLinearFitRecoversRandomLines(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Float64()*20 - 10)
			vals[1] = reflect.ValueOf(r.Float64()*20 - 10)
			vals[2] = reflect.ValueOf(r.Intn(20) + 2)
		},
	}
	prop := func(a, b float64, n int) bool {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
			ys[i] = a + b*xs[i]
		}
		ga, gb := LinearFit(xs, ys)
		return math.Abs(ga-a) < 1e-6 && math.Abs(gb-b) < 1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestLinearFitPanics(t *testing.T) {
	for _, tc := range []struct{ xs, ys []float64 }{
		{[]float64{1}, []float64{1}},
		{[]float64{1, 2}, []float64{1}},
		{[]float64{3, 3}, []float64{1, 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", tc.xs)
				}
			}()
			LinearFit(tc.xs, tc.ys)
		}()
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr = %v", got)
	}
	if got := RelErr(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr = %v", got)
	}
	if got := RelErr(5, 0); got != 5 {
		t.Errorf("RelErr with zero actual = %v", got)
	}
	if got := SignedRelErr(90, 100); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("SignedRelErr = %v", got)
	}
	if got := SignedRelErr(3, 0); got != 3 {
		t.Errorf("SignedRelErr with zero actual = %v", got)
	}
}

func TestAggregates(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestSummarize(t *testing.T) {
	pred := []float64{110, 95}
	act := []float64{100, 100}
	s := Summarize(pred, act)
	if s.N != 2 {
		t.Errorf("N = %d", s.N)
	}
	if math.Abs(s.MeanAbs-0.075) > 1e-12 {
		t.Errorf("MeanAbs = %v", s.MeanAbs)
	}
	if math.Abs(s.MaxAbs-0.1) > 1e-12 || s.WorstPred != 110 || s.WorstAct != 100 {
		t.Errorf("worst = %v %v %v", s.MaxAbs, s.WorstPred, s.WorstAct)
	}
	if math.Abs(s.MeanSgn-0.025) > 1e-12 {
		t.Errorf("bias = %v", s.MeanSgn)
	}
	if !strings.Contains(s.String(), "max|err|") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummarizePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Summarize([]float64{1}, []float64{1, 2})
}

func TestStream(t *testing.T) {
	var s Stream
	xs := []float64{4, 1, 9, 2, 2}
	for _, x := range xs {
		s.Add(x)
	}
	if s.N() != 5 || s.Max() != 9 {
		t.Errorf("aggregates wrong: n=%d max=%v", s.N(), s.Max())
	}
	if math.Abs(s.Mean()-3.6) > 1e-12 {
		t.Errorf("mean = %v, want 3.6", s.Mean())
	}
	var empty Stream
	if empty.N() != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Error("zero-value stream not empty")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	got := Percentiles(xs, 0, 0.25, 0.5, 0.9, 1)
	want := []float64{1, 2, 3, 4.6, 5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("p=%v: got %v, want %v", []float64{0, 0.25, 0.5, 0.9, 1}[i], got[i], want[i])
		}
	}
	if xs[0] != 5 {
		t.Error("input slice was mutated")
	}
	if Percentile([]float64{7}, 0.5) != 7 {
		t.Error("single-element percentile")
	}
	// Defined edge behavior: empty input yields zeros, invalid p yields
	// NaN for that entry only — neither panics.
	if got := Percentiles(nil, 0, 0.5, 1); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("empty input: got %v, want zeros", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	mixed := Percentiles(xs, -0.1, 0.5, 1.5, math.NaN())
	if !math.IsNaN(mixed[0]) || !math.IsNaN(mixed[2]) || !math.IsNaN(mixed[3]) {
		t.Errorf("invalid p entries = %v, want NaN", mixed)
	}
	if mixed[1] != 3 {
		t.Errorf("valid p alongside invalid ones = %v, want 3", mixed[1])
	}
}

func TestRelChange(t *testing.T) {
	cases := []struct{ base, treat, want float64 }{
		{100, 110, 0.10},
		{100, 90, -0.10},
		{100, 100, 0},
		{0, 7, 7}, // zero baseline: the SignedRelErr convention
		{0, 0, 0},
		{-10, -5, -0.5}, // change relative to a negative baseline
	}
	for _, c := range cases {
		if got := RelChange(c.base, c.treat); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelChange(%v, %v) = %v, want %v", c.base, c.treat, got, c.want)
		}
	}
}

func TestPairedRelChange(t *testing.T) {
	got := PairedRelChange([]float64{100, 200, 0}, []float64{110, 100, 3})
	want := []float64{0.1, -0.5, 3}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Defined edge behavior, no panics: mismatched lengths yield nil,
	// empty inputs yield an empty non-nil slice.
	if PairedRelChange([]float64{1}, []float64{1, 2}) != nil {
		t.Error("mismatched lengths should yield nil")
	}
	if got := PairedRelChange(nil, nil); got == nil || len(got) != 0 {
		t.Errorf("empty inputs = %v, want empty non-nil slice", got)
	}
	// NaN observations pass through rather than crash.
	if out := PairedRelChange([]float64{1}, []float64{math.NaN()}); !math.IsNaN(out[0]) {
		t.Errorf("NaN treat = %v, want NaN", out[0])
	}
}

func TestEffectOf(t *testing.T) {
	e := EffectOf([]float64{0.3, 0.1, 0.2})
	if e.N != 3 || e.Min != 0.1 || e.Median != 0.2 || e.Max != 0.3 {
		t.Errorf("EffectOf = %+v", e)
	}
	if one := EffectOf([]float64{-0.4}); one.N != 1 || one.Min != -0.4 || one.Median != -0.4 || one.Max != -0.4 {
		t.Errorf("single-seed effect = %+v", one)
	}
	if empty := EffectOf(nil); empty != (Effect{}) {
		t.Errorf("EffectOf(nil) = %+v, want zero", empty)
	}
}

func TestEffectConsistent(t *testing.T) {
	inc := EffectOf([]float64{0.1, 0.2, 0.3})
	dec := EffectOf([]float64{-0.1, -0.2, -0.3})
	mixed := EffectOf([]float64{-0.1, 0.2, 0.3})
	withZero := EffectOf([]float64{0, 0.2, 0.3})
	if !inc.Consistent(1) || inc.Consistent(-1) {
		t.Error("all-positive effect should be consistent with +1 only")
	}
	if !dec.Consistent(-1) || dec.Consistent(1) {
		t.Error("all-negative effect should be consistent with -1 only")
	}
	if mixed.Consistent(1) || mixed.Consistent(-1) {
		t.Error("mixed-sign effect should never be consistent")
	}
	if withZero.Consistent(1) {
		t.Error("a zero effect at any seed must not confirm a direction")
	}
	if (Effect{}).Consistent(1) {
		t.Error("empty effect must not be consistent")
	}
	nan := EffectOf([]float64{math.NaN(), 0.1, 0.2})
	if nan.Consistent(1) {
		t.Error("NaN effect must not be consistent")
	}
}
