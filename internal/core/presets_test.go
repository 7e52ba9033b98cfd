package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
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

var update = flag.Bool("update", false, "rewrite testdata/model.sha256")

// TestModelScanPinned pins the model at full precision over the planner grid
// of the repository benchmark's model scan: LU, Sweep3D and Chimaera on a
// 1000³ grid × XT4-like nodes of 1, 2, 4 and 8 cores × Htile 1, 2, 4 and 8
// × P = 1,024…131,072 in doubling steps (384 evaluations). Each line of
// testdata/model.sha256 is the SHA-256 over the Float64bits of every float
// field and the value of every integer field of the eight reports of one
// (app, cores, Htile) group, so a one-ulp change to any report names its
// group. To bless an intentional change:
//
//	go test ./internal/core -run TestModelScanPinned -update
//
// and explain the changed lines in the commit message.
func TestModelScanPinned(t *testing.T) {
	const path = "testdata/model.sha256"
	want := map[string]string{}
	if !*update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to record)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if sum, id, ok := strings.Cut(line, "  "); ok {
				want[id] = sum
			}
		}
	}
	var manifest strings.Builder
	for _, app := range []string{"lu", "sweep3d", "chimaera"} {
		for _, cores := range []int{1, 2, 4, 8} {
			for _, htile := range []int{1, 2, 4, 8} {
				id := fmt.Sprintf("%s-cores%d-htile%d", app, cores, htile)
				wantSum := want[id]
				delete(want, id)
				t.Run(id, func(t *testing.T) {
					sum := scanGroupSum(t, app, cores, htile)
					fmt.Fprintf(&manifest, "%s  %s\n", sum, id)
					if !*update && sum != wantSum {
						t.Errorf("reports drifted from %s", path)
					}
				})
			}
		}
	}
	for id := range want {
		t.Errorf("%s lists %q, which the scan no longer evaluates", path, id)
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(path, []byte(manifest.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// scanGroupSum evaluates one (app, cores, Htile) group of the model scan at
// P = 1,024…131,072 and hashes every numeric field of its reports.
func scanGroupSum(t *testing.T, app string, cores, htile int) string {
	bm, err := apps.Preset(app, grid.Cube(1000), htile)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := machine.XT4MultiCore(cores)
	if err != nil {
		t.Fatal(err)
	}
	mo := core.New(bm.App, mach)
	h := sha256.New()
	for p := 1 << 10; p <= 1<<17; p <<= 1 {
		rep, err := mo.EvaluateP(p)
		if err != nil {
			t.Fatal(err)
		}
		v := reflect.ValueOf(rep)
		for k := 0; k < v.NumField(); k++ {
			switch f := v.Field(k); f.Kind() {
			case reflect.Float64:
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f.Float())))
			case reflect.Int:
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(f.Int())))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
