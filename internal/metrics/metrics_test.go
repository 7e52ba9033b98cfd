package metrics

import (
	"fmt"
	"math"
	"testing"
)

// perfectScaling models R(p) = k/p (ideal speedup).
func perfectScaling(k float64) Evaluator {
	return func(p int) (float64, error) { return k / float64(p), nil }
}

// saturatingScaling models R(p) = k/p + c (communication floor).
func saturatingScaling(k, c float64) Evaluator {
	return func(p int) (float64, error) { return k/float64(p) + c, nil }
}

func TestTimeStepsPerMonth(t *testing.T) {
	// One step per day → 30 steps per month.
	if got := TimeStepsPerMonth(86400 * 1e6); math.Abs(got-30) > 1e-9 {
		t.Errorf("steps/month = %v", got)
	}
	if !math.IsInf(TimeStepsPerMonth(0), 1) {
		t.Error("zero time should give infinite throughput")
	}
}

func TestPartitionsPerfectScalingIsThroughputNeutral(t *testing.T) {
	// With ideal speedup, total throughput is independent of partitioning:
	// X = jobs/R = jobs·p/k = pavail/k for all splits.
	pts, err := Partitions(1024, []int{1, 2, 4, 8}, perfectScaling(1e6))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[1:] {
		if math.Abs(p.X-pts[0].X)/pts[0].X > 1e-9 {
			t.Errorf("throughput not neutral: %v vs %v", p.X, pts[0].X)
		}
	}
	// Under ideal scaling R/X = R²/jobs = k²/(partition·pavail): larger
	// partitions strictly win, so one big job is optimal — partitioning
	// only pays once scaling saturates.
	best, err := Optimal(pts, MinRoverX)
	if err != nil {
		t.Fatal(err)
	}
	if best.Jobs != 1 {
		t.Errorf("ideal scaling min R/X jobs = %d, want 1", best.Jobs)
	}
}

func TestPartitionsSaturatingScalingFavorsFewerJobsForR2X(t *testing.T) {
	eval := saturatingScaling(1e9, 5e5)
	pts, err := Partitions(65536, []int{1, 2, 4, 8, 16}, eval)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := Optimal(pts, MinRoverX)
	if err != nil {
		t.Fatal(err)
	}
	r2x, err := Optimal(pts, MinR2overX)
	if err != nil {
		t.Fatal(err)
	}
	// R²/X weighs response time more → at least as large partitions
	// (fewer jobs) as R/X.
	if r2x.Jobs > rx.Jobs {
		t.Errorf("R²/X jobs (%d) should be ≤ R/X jobs (%d)", r2x.Jobs, rx.Jobs)
	}
}

func TestPartitionsErrors(t *testing.T) {
	if _, err := Partitions(10, []int{3}, perfectScaling(1)); err == nil {
		t.Error("non-divisor jobs accepted")
	}
	if _, err := Partitions(10, []int{0}, perfectScaling(1)); err == nil {
		t.Error("zero jobs accepted")
	}
	fail := func(int) (float64, error) { return 0, fmt.Errorf("boom") }
	if _, err := Partitions(8, []int{2}, fail); err == nil {
		t.Error("evaluator error swallowed")
	}
}

func TestOptimalEmpty(t *testing.T) {
	if _, err := Optimal(nil, MinRoverX); err == nil {
		t.Error("empty points accepted")
	}
}

func TestOptimalJobs(t *testing.T) {
	eval := saturatingScaling(1e9, 2e5)
	pt, err := OptimalJobs(65536, 1024, MinRoverX, eval)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Jobs < 1 || pt.Partition < 1024 {
		t.Errorf("optimal = %+v", pt)
	}
	if _, err := OptimalJobs(512, 1024, MinRoverX, eval); err == nil {
		t.Error("infeasible min partition accepted")
	}
}

func TestPartitionPointFields(t *testing.T) {
	pts, err := Partitions(64, []int{2}, perfectScaling(128e6))
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.Partition != 32 || p.Jobs != 2 || p.Pavail != 64 {
		t.Errorf("point = %+v", p)
	}
	wantR := 128e6 / 32
	if p.R != wantR {
		t.Errorf("R = %v", p.R)
	}
	if math.Abs(p.RoverX-wantR*wantR/2) > 1e-6 {
		t.Errorf("R/X = %v", p.RoverX)
	}
	if math.Abs(p.R2overX-wantR*wantR*wantR/2) > 1 {
		t.Errorf("R²/X = %v", p.R2overX)
	}
}

func TestDiminishingReturns(t *testing.T) {
	ps := []int{1, 2, 4, 8}
	times := []float64{100, 55, 40, 38}
	knee, err := DiminishingReturns(ps, times, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// 100→55 (45%) and 55→40 (27%) clear the 20% bar; 40→38 (5%) does not,
	// so the knee is at p=4.
	if knee != 4 {
		t.Errorf("knee = %d, want 4", knee)
	}
	// All improvements above threshold → last point.
	knee, err = DiminishingReturns([]int{1, 2}, []float64{100, 50}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if knee != 2 {
		t.Errorf("knee = %d, want last point", knee)
	}
	if _, err := DiminishingReturns([]int{1}, []float64{1, 2}, 0.1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := DiminishingReturns([]int{1, 2}, []float64{0, 1}, 0.1); err == nil {
		t.Error("zero time accepted")
	}
}
