package baseline

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/stats"
)

func config(g grid.Grid, n, m int, p logp.Params) Sweep3DConfig {
	return Sweep3DConfig{
		Grid: g, N: n, M: m,
		WgAngle: 0.123,
		MK:      4, MMI: 3, MMO: 6,
		Params: p,
	}
}

func TestValidate(t *testing.T) {
	good := config(grid.Cube(48), 4, 4, logp.XT4())
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.N = 1
	if bad.Validate() == nil {
		t.Error("n=1 accepted (Table 4 model needs n,m > 1)")
	}
	bad = good
	bad.MMO = 5 // not divisible by mmi=3
	if bad.Validate() == nil {
		t.Error("invalid angle blocking accepted")
	}
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = good
		bad.WgAngle = v
		if bad.Validate() == nil {
			t.Errorf("WgAngle = %v accepted", v)
		}
		if _, err := Evaluate(bad); err == nil {
			t.Errorf("Evaluate with WgAngle = %v returned no error", v)
		}
	}
	bad = good
	bad.Grid = grid.Grid{}
	if bad.Validate() == nil {
		t.Error("invalid grid accepted")
	}
}

// TestEvaluatePinnedBits pins every output of the Table 4 model, as hex
// floats, to the values of its original full-array StartP recurrence.
func TestEvaluatePinnedBits(t *testing.T) {
	for _, tc := range []struct {
		c    Sweep3DConfig
		want Result
	}{
		{Sweep3DConfig{Grid: grid.Cube(48), N: 4, M: 4, WgAngle: 0.123, MK: 4, MMI: 3, MMO: 6, Params: logp.XT4()},
			Result{W: 0x1.a916872b020c4p+07, StartP1M: 0x1.5950902de00d1p+09, StartPNM: 0x1.5c99ad42c3cap+10,
				Time56: 0x1.688f32ca57a78p+13, Time78: 0x1.8b82089a02752p+13, Total: 0x1.7a089db22d0e5p+15}},
		{Sweep3DConfig{Grid: grid.Cube(48), N: 8, M: 8, WgAngle: 0.123, MK: 4, MMI: 3, MMO: 6, Params: logp.SP2(), SyncTerms: true},
			Result{W: 0x1.a916872b020c4p+05, StartP1M: 0x1.448c49ba5e354p+10, StartPNM: 0x1.448c49ba5e354p+11,
				Time56: 0x1.aec5c28f5c28ep+13, Time78: 0x1.62b65e353f7cep+14, Total: 0x1.1d0c9fbe76c8ap+16}},
		{Sweep3DConfig{Grid: grid.Cube(96), N: 16, M: 8, WgAngle: 0.0411, MK: 10, MMI: 3, MMO: 6, Params: logp.XT4()},
			Result{W: 0x1.631a9fbe76c8bp+06, StartP1M: 0x1.74f3126e978d2p+09, StartPNM: 0x1.2e8ab020c49bep+11,
				Time56: 0x1.2e72dd2f1a9fbp+12, Time78: 0x1.ae4716872b022p+12, Total: 0x1.6e5cf9db22d0ep+14}},
		{Sweep3DConfig{Grid: grid.Cube(1000), N: 512, M: 256, WgAngle: 0.0238, MK: 2, MMI: 6, MMO: 6, Params: logp.XT4(), SyncTerms: true},
			Result{W: 0x1.2474538ef34d7p+01, StartP1M: 0x1.cbd90e5604154p+11, StartPNM: 0x1.5a9029c779aaep+13,
				Time56: 0x1.65ba953f7ced8p+16, Time78: 0x1.f8c9c2ca57a7cp+17, Total: 0x1.55d386b50b0f4p+19}},
		{Sweep3DConfig{Grid: grid.NewGrid(150, 100, 75), N: 2, M: 7, WgAngle: 1.5, MK: 5, MMI: 1, MMO: 3, Params: logp.SP2()},
			Result{W: 0x1.07acp+13, StartP1M: 0x1.9ce6p+15, StartPNM: 0x1.e20bp+15,
				Time56: 0x1.9ae08p+19, Time78: 0x1.a004dp+19, Total: 0x1.9d72a8p+21}},
		{Sweep3DConfig{Grid: grid.NewGrid(64, 32, 16), N: 9, M: 2, WgAngle: 0.25, MK: 1, MMI: 1, MMO: 2, Params: logp.XT4()},
			Result{W: 0x1p+05, StartP1M: 0x1.60b98c7e28241p+05, StartPNM: 0x1.8d052bd3c361p+08,
				Time56: 0x1.443b381d7dbf5p+11, Time78: 0x1.8eaed916872b1p+11, Total: 0x1.6975089a02753p+13}},
	} {
		got, err := Evaluate(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"W", got.W, tc.want.W}, {"StartP1M", got.StartP1M, tc.want.StartP1M},
			{"StartPNM", got.StartPNM, tc.want.StartPNM}, {"Time56", got.Time56, tc.want.Time56},
			{"Time78", got.Time78, tc.want.Time78}, {"Total", got.Total, tc.want.Total},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Errorf("%v on %dx%d: %s = %x, want %x", tc.c.Grid, tc.c.N, tc.c.M, f.name, f.got, f.want)
			}
		}
	}
}

func TestEvaluateComponents(t *testing.T) {
	c := config(grid.Cube(48), 4, 4, logp.XT4())
	r, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	// W = Wg × mmi × mk × jt × it = 0.123 × 3 × 4 × 12 × 12.
	want := 0.123 * 3 * 4 * 12 * 12
	if math.Abs(r.W-want) > 1e-9 {
		t.Errorf("W = %v, want %v", r.W, want)
	}
	if r.StartP1M <= 0 || r.StartPNM <= r.StartP1M {
		t.Errorf("fills: StartP(1,m)=%v StartP(n,m)=%v", r.StartP1M, r.StartPNM)
	}
	if r.Total != 2*(r.Time56+r.Time78) {
		t.Errorf("(s5) broken: %v vs %v", r.Total, 2*(r.Time56+r.Time78))
	}
}

func TestSyncTermsIncreaseTime(t *testing.T) {
	c := config(grid.Cube(48), 8, 8, logp.SP2())
	plain, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	c.SyncTerms = true
	sync, err := Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Total <= plain.Total {
		t.Errorf("sync terms did not increase time: %v vs %v", sync.Total, plain.Total)
	}
	// On the SP/2 the sync terms are a noticeable fraction; on the XT4
	// they are negligible (paper Section 4.2).
	spFrac := (sync.Total - plain.Total) / plain.Total
	cx := config(grid.Cube(48), 8, 8, logp.XT4())
	cx.SyncTerms = true
	xs, err := Evaluate(cx)
	if err != nil {
		t.Fatal(err)
	}
	cx.SyncTerms = false
	xp, err := Evaluate(cx)
	if err != nil {
		t.Fatal(err)
	}
	xtFrac := (xs.Total - xp.Total) / xp.Total
	if xtFrac >= spFrac/5 {
		t.Errorf("XT4 sync fraction %v should be far below SP/2's %v", xtFrac, spFrac)
	}
	if xtFrac > 0.05 {
		t.Errorf("XT4 sync fraction %v should be small", xtFrac)
	}
}

func TestBaselineAgreesWithPlugAndPlay(t *testing.T) {
	// On Sweep3D — the one code the Table 4 model covers — the two models
	// must agree closely (the plug-and-play model generalises it).
	g := grid.Cube(96)
	for _, p := range []int{16, 64, 256} {
		dec, err := grid.SquareDecomposition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		c := config(g, dec.N, dec.M, logp.XT4())
		base, err := Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		bm := apps.Sweep3D(g, c.MK*c.MMI/c.MMO).WithIterations(1)
		// Match the baseline's per-angle work and drop the all-reduce,
		// which the Table 4 model does not include.
		app := bm.App
		app.Wg = c.WgAngle * float64(c.MMO)
		app.NonWavefront = nil
		rep, err := core.New(app, machine.XT4SingleCore()).Evaluate(dec)
		if err != nil {
			t.Fatal(err)
		}
		if re := stats.RelErr(rep.TimePerIteration, base.Total); re > 0.1 {
			t.Errorf("P=%d: plug-and-play %v vs baseline %v (%.1f%%)",
				p, rep.TimePerIteration, base.Total, re*100)
		}
	}
}
