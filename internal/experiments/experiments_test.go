package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/logp"
	"repro/internal/simmpi"
	"repro/internal/stats"
)

func TestRegistryHasAllPaperArtefacts(t *testing.T) {
	want := []string{
		"table2", "fig3a", "fig3b", "allreduce", "validate",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"table4", "sweeps", "topology", "collectives",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", true); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID: "x", Title: "demo",
		Columns: []string{"a", "bbbb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"hello"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "bbbb", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTable2Experiment(t *testing.T) {
	tab, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	// Every derived parameter within 0.5% of the injected value.
	for _, row := range tab.Rows {
		if !strings.Contains(row[3], "0.00%") {
			t.Errorf("parameter %s off: %v", row[0], row[3])
		}
	}
}

func TestFig3Experiments(t *testing.T) {
	for _, path := range []logp.Path{logp.OffNode, logp.OnChip} {
		pts, sum, err := Fig3Data(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 0 {
			t.Fatal("no points")
		}
		// Uncontended simulation follows Table 1 exactly.
		if sum.MaxAbs > 1e-9 {
			t.Errorf("%v: model/sim mismatch %v", path, sum)
		}
		// Times increase with size within each protocol segment and jump
		// at the threshold.
		for i := 1; i < len(pts); i++ {
			if pts[i].Simulated < pts[i-1].Simulated-1e-9 &&
				pts[i-1].Bytes != 1024 {
				t.Errorf("%v: non-monotone at %d bytes", path, pts[i].Bytes)
			}
		}
	}
}

func TestAllReduceExperiment(t *testing.T) {
	pts, err := AllReduceData([]int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Simulated <= 0 || p.Model <= 0 {
			t.Errorf("P=%d: non-positive times %+v", p.P, p)
		}
		// Equation (9) is an upper bound (serialised NIC sharing); the
		// simulated recursive doubling must not exceed ~1.1× of it and
		// should be at least the C=1 lower bound.
		if p.Simulated > p.Model*1.1 {
			t.Errorf("P=%d: simulated %v far above model %v", p.P, p.Simulated, p.Model)
		}
	}
}

func TestValidationWithinPaperBounds(t *testing.T) {
	pts, err := ValidateData(ValidationSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 { // 3 apps × 2 processor counts
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		bound := 0.12
		if p.App == "LU" {
			bound = 0.08
		}
		if p.RelErr < -bound || p.RelErr > bound {
			t.Errorf("%s P=%d: model error %.2f%% outside ±%.0f%%",
				p.App, p.P, p.RelErr*100, bound*100)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the testdata manifests")

// TestQuickDriversRun runs every registered driver in quick mode and pins
// its rendered table byte for byte: each line of testdata/quick.sha256 is
// the SHA-256 of one table and its id, the line `go run ./cmd/wavebench
// -exp <id> -quick | sha256sum` prints, and a drifted table fails the
// subtest named by its id. To bless an intentional change:
//
//	go test ./internal/experiments -run TestQuickDriversRun -update
//
// and explain the changed lines in the commit message.
func TestQuickDriversRun(t *testing.T) {
	const path = "testdata/quick.sha256"
	want := readDigests(t, path)
	var manifest strings.Builder
	for _, id := range IDs() {
		wantSum := want[id]
		delete(want, id)
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Error("no rows")
			}
			if tab.ID != id {
				t.Errorf("table id %q", tab.ID)
			}
			var buf bytes.Buffer
			tab.Render(&buf)
			sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			fmt.Fprintf(&manifest, "%s  %s\n", sum, id)
			if !*update && sum != wantSum {
				t.Errorf("rendered table drifted from %s", path)
			}
		})
	}
	for id := range want {
		t.Errorf("%s lists %q, which is no longer registered", path, id)
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(path, []byte(manifest.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFig6DataShape(t *testing.T) {
	pts, err := Fig6Data([]int{1024, 4096, 16384}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Diminishing but monotone improvement.
	for i := 1; i < len(pts); i++ {
		if pts[i].PredictedDays >= pts[i-1].PredictedDays {
			t.Errorf("no improvement at P=%d", pts[i].P)
		}
	}
	speedup := pts[0].PredictedDays / pts[2].PredictedDays
	if speedup < 4 || speedup > 16 {
		t.Errorf("16× processors gave %vx speedup", speedup)
	}
}

func TestFig11CommunicationEventuallyDominates(t *testing.T) {
	pts, err := Fig11Data([]int{1024, 32768})
	if err != nil {
		t.Fatal(err)
	}
	small, large := pts[0], pts[1]
	if small.CommDays/small.TotalDays >= 0.5 {
		t.Errorf("communication already dominates at P=1024 (%.1f%%)",
			small.CommDays/small.TotalDays*100)
	}
	if large.CommDays/large.TotalDays <= 0.5 {
		t.Errorf("communication does not dominate at P=32768 (%.1f%%)",
			large.CommDays/large.TotalDays*100)
	}
}

// TestValidateCampaignParity pins the validation driver, whose engine
// runs on pooled simulators reset between runs, to Run.Simulate on a fresh
// simulator per run: same runs, same order, bit-identical model and
// simulator numbers.
func TestValidateCampaignParity(t *testing.T) {
	spec := ValidationSpec(true)
	got, err := ValidateData(spec)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(runs) {
		t.Fatalf("driver produced %d points for %d runs", len(got), len(runs))
	}
	for i, r := range runs {
		s, err := r.Simulate(nil, simmpi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := ValidationPoint{
			App:       r.App,
			P:         r.P,
			Model:     s.Report.Total,
			Simulated: s.Result.Time,
			RelErr:    stats.SignedRelErr(s.Report.Total, s.Result.Time),
		}
		if got[i] != want {
			t.Errorf("point %d: driver %+v != fresh simulator %+v", i, got[i], want)
		}
	}
}

// TestCollectivesMatchCollGolden: the quick-mode P=8 rows of every fabric
// print the completion times and message counts that internal/coll's
// golden file pins for the same machine, collective and rank count.
func TestCollectivesMatchCollGolden(t *testing.T) {
	golden, err := os.ReadFile("../coll/testdata/collectives_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // "<label> <collective>" → "<simulated> <messages>"
	for _, line := range strings.Split(string(golden), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 6 || fields[2] != "P=8" {
			continue
		}
		tm, err := strconv.ParseFloat(strings.TrimPrefix(fields[3], "time="), 64)
		if err != nil {
			t.Fatal(err)
		}
		want[fields[0]+" "+fields[1]] = f(tm) + " " + strings.TrimPrefix(fields[5], "msgs=")
	}
	labels := map[string]string{"flat wire": "xt4-dual/bus", "torus2d": "xt4-dual/torus2d", "fattree": "xt4-dual/fattree"}

	tab, err := Collectives(true)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, row := range tab.Rows {
		if row[2] != "8" {
			continue
		}
		key := labels[row[0]] + " " + row[1]
		w, ok := want[key]
		if !ok {
			t.Errorf("%s P=8 has no golden line", key)
			continue
		}
		if got := row[4] + " " + row[6]; got != w {
			t.Errorf("%s P=8: simulated/messages %q, golden %q", key, got, w)
		}
		matched++
	}
	if matched != 18 {
		t.Errorf("matched %d P=8 rows, want 6 collectives × 3 fabrics", matched)
	}
}

// TestCollectivesCrossoverPerFabric: at P=64 the ring all-reduce overtakes
// recursive doubling earlier on routed fabrics than on the flat wire.
func TestCollectivesCrossoverPerFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size collectives study")
	}
	tab, err := Collectives(false)
	if err != nil {
		t.Fatal(err)
	}
	notes := strings.Join(tab.Notes, "\n")
	for _, want := range []string{
		"flat wire, P=64: ring beats recursive doubling from 1048576 B",
		"torus2d, P=64: ring beats recursive doubling from 262144 B",
		"fattree, P=64: ring beats recursive doubling from 524288 B",
	} {
		if !strings.Contains(notes, want) {
			t.Errorf("notes lack %q:\n%s", want, notes)
		}
	}
}
