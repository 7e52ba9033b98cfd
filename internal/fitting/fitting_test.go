package fitting

import (
	"math"
	"testing"

	"repro/internal/logp"
	"repro/internal/machine"
)

func TestPingPongMatchesModel(t *testing.T) {
	mach := machine.XT4()
	for _, path := range []logp.Path{logp.OffNode, logp.OnChip} {
		for _, bytes := range []int{64, 1024, 1025, 8192} {
			got, err := PingPong(mach, path, bytes, 3)
			if err != nil {
				t.Fatal(err)
			}
			want := mach.Params.TotalComm(path, bytes)
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Errorf("%v %dB: half-RTT = %v, want %v", path, bytes, got, want)
			}
		}
	}
}

func TestPingPongErrors(t *testing.T) {
	if _, err := PingPong(machine.XT4(), logp.OffNode, 0, 1); err == nil {
		t.Error("zero bytes accepted")
	}
	if _, err := PingPong(machine.XT4(), logp.OffNode, 8, 0); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := PingPong(machine.XT4SingleCore(), logp.OnChip, 8, 1); err == nil {
		t.Error("on-chip ping-pong on single-core nodes accepted")
	}
}

func TestDeriveTable2RecoversInjectedParameters(t *testing.T) {
	mach := machine.XT4()
	d, err := DeriveTable2(mach)
	if err != nil {
		t.Fatal(err)
	}
	ref := mach.Params
	check := func(name string, got, want float64) {
		if want == 0 {
			if math.Abs(got) > 1e-9 {
				t.Errorf("%s = %v, want 0", name, got)
			}
			return
		}
		if math.Abs(got-want)/want > 1e-6 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("G", d.G, ref.G)
	check("L", d.L, ref.L)
	check("o", d.O, ref.O)
	check("Gcopy", d.Gcopy, ref.Gcopy)
	check("Gdma", d.Gdma, ref.Gdma)
	check("ocopy", d.Ocopy, ref.Ocopy)
	check("o on-chip", d.Ochip, ref.Ochip)
}

func TestDerivedParamsRoundTrip(t *testing.T) {
	mach := machine.XT4()
	d, err := DeriveTable2(mach)
	if err != nil {
		t.Fatal(err)
	}
	p := mach.Params
	p.G, p.L, p.O = d.G, d.L, d.O
	p.Gcopy, p.Gdma, p.Ochip, p.Ocopy = d.Gcopy, d.Gdma, d.Ochip, d.Ocopy
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// A model built from derived parameters predicts the same comm times.
	for _, bytes := range []int{100, 5000} {
		if math.Abs(p.TotalCommOffNode(bytes)-mach.Params.TotalCommOffNode(bytes)) > 1e-6 {
			t.Errorf("round-trip mismatch at %d bytes", bytes)
		}
	}
}

func TestFitErrorsWithoutBothSegments(t *testing.T) {
	small := []Sample{{64, 1}, {128, 2}}
	if _, err := FitOffNode(small); err == nil {
		t.Error("fit without large samples accepted")
	}
	if _, err := FitOnChip(small); err == nil {
		t.Error("on-chip fit without large samples accepted")
	}
}

func TestSweepAndCompareCurves(t *testing.T) {
	mach := machine.XT4()
	sizes := []int{64, 512, 2048, 8192}
	meas, err := Sweep(mach, logp.OffNode, sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	model := ModelCurve(mach.Params, logp.OffNode, sizes)
	if len(model) != len(meas) {
		t.Fatalf("%d model samples for %d measured", len(model), len(meas))
	}
	for i := range model {
		if model[i].Bytes != meas[i].Bytes || math.Abs(model[i].Time-meas[i].Time) > 1e-9*meas[i].Time {
			t.Errorf("model and uncontended simulation differ: %+v vs %+v", model[i], meas[i])
		}
	}
}

func TestDefaultSizesSpanThreshold(t *testing.T) {
	sizes := DefaultSizes()
	var below, above bool
	for _, s := range sizes {
		if s <= logp.EagerThreshold {
			below = true
		} else {
			above = true
		}
	}
	if !below || !above {
		t.Error("default sizes must span the protocol threshold")
	}
}
