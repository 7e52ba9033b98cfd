package trace

// Golden lock-down of the Gantt chart for a small LU run: it is pinned
// byte-for-byte, so any drift in span recording or the chart's rendering
// shows up as a diff against testdata/lu_breakdown_golden.txt.
//
// To bless an intentional change:
//
//	go test ./internal/trace -run TestBreakdownGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runLUTraced runs one LU iteration on a 16³ grid over 4×4 ranks at the
// given shard count with a span recorder attached.
func runLUTraced(t *testing.T, shards int) ([]obs.Span, int) {
	t.Helper()
	g := grid.Cube(16)
	bm := apps.LU(g)
	dec := grid.MustDecompose(g, 4, 4)
	mach := machine.XT4()
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	rec := &obs.Recorder{Spans: true}
	sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Obs: rec, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if k, _, _ := sim.ParallelStats(); k != shards {
		t.Fatalf("requested %d shards, ran with %d", shards, k)
	}
	return rec.SpanList(), dec.P()
}

// TestBreakdownGolden renders the serial run and every sharded one against
// the same golden chart, and checks that their per-rank profiles are equal.
func TestBreakdownGolden(t *testing.T) {
	const path = "testdata/lu_breakdown_golden.txt"
	var serial []RankProfile
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			spans, ranks := runLUTraced(t, shards)
			profiles := Profile(spans, ranks)
			if shards == 1 {
				serial = profiles
			} else if !reflect.DeepEqual(profiles, serial) {
				t.Errorf("profiles differ from the serial run's:\n got %+v\nwant %+v", profiles, serial)
			}
			var buf bytes.Buffer
			Gantt(&buf, spans, ranks, 72)
			got := buf.Bytes()
			if *update && shards == 1 {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rendered output drifted from golden; run with -update and explain the drift\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
