package core_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
)

// TestPresetsBitIdenticalToReference evaluates the three paper benchmarks as
// a planner does, on a 1000³ grid at P = 1K…128K on nodes of 1 to 16 cores,
// and requires every figure of the report to match the cell-by-cell
// reference recurrence bit for bit.
func TestPresetsBitIdenticalToReference(t *testing.T) {
	for _, name := range []string{"lu", "sweep3d", "chimaera"} {
		bm, err := apps.Preset(name, grid.Cube(1000), 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, cores := range []int{1, 2, 4, 8, 16} {
			mach, err := machine.XT4MultiCore(cores)
			if err != nil {
				t.Fatal(err)
			}
			mo := core.New(bm.App, mach)
			for p := 1 << 10; p <= 1<<17; p <<= 1 {
				got, err := mo.EvaluateP(p)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := grid.SquareDecomposition(bm.App.Grid, p)
				if err != nil {
					t.Fatal(err)
				}
				if d := core.ReportDiff(got, core.ReferenceModel(mo, dec)); d != "" {
					t.Errorf("%s, %d cores/node, P=%d: %s", name, cores, p, d)
				}
			}
		}
	}
}
