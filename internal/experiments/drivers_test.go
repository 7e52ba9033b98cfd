package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/logp"
	"repro/internal/topo"
)

// raceEnabled is set when the race detector is built in (race_test.go).
var raceEnabled bool

// TestDriverResultsPinned pins the typed results of the drivers that
// simulate, at full precision: a line of testdata/drivers.sha256 is the
// SHA-256 of one driver's points (see digest), then the driver and its
// size. The rendered tables keep 4 significant digits, so a change of one
// ulp in a machine parameter can pass TestQuickDriversRun; it fails here
// wherever it moves a result's bits. One ulp of the XT4's G, say, moves
// only fig3a's ping-pong times: the wavefront drivers add each message's
// size×G to times large enough to round it away. The quick sizes are the
// tables' -quick sizes, plus a 16-rank simulated point for fig6, whose
// quick table simulates nothing. The full sizes (about 8 s together) run
// only without -short, and not under the race detector, which slows them
// about twentyfold and finds nothing there the quick sizes do not reach.
// To bless an intentional change, without -short:
//
//	go test ./internal/experiments -run TestDriverResultsPinned -update
//
// and explain the changed lines in the commit message.
func TestDriverResultsPinned(t *testing.T) {
	const path = "testdata/drivers.sha256"
	if *update && (testing.Short() || raceEnabled) {
		t.Fatal("-update rewrites every line: run it without -short or -race")
	}
	fabrics := []topo.Spec{{}, {Kind: topo.Torus2D}, {Kind: topo.Torus3D}, {Kind: topo.FatTree}}
	fig6Ps := []int{1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}
	fig3 := func(path logp.Path) (any, error) {
		pts, sum, err := Fig3Data(path)
		return []any{pts, sum}, err
	}
	cases := []struct {
		id   string
		full bool
		run  func() (any, error)
	}{
		{"fig3a", false, func() (any, error) { return fig3(logp.OffNode) }},
		{"fig3b", false, func() (any, error) { return fig3(logp.OnChip) }},
		{"validate quick", false, func() (any, error) { return ValidateData(ValidationSpec(true)) }},
		{"validate full", true, func() (any, error) { return ValidateData(ValidationSpec(false)) }},
		{"contention quick", false, func() (any, error) { return ContentionData(grid.Cube(48), 64, []int{1, 2, 4, 8}, 1) }},
		{"contention full", true, func() (any, error) { return ContentionData(grid.Cube(64), 256, []int{1, 2, 4, 8}, 1) }},
		{"topology quick", false, func() (any, error) { return TopologyData(grid.Cube(24), 2, fabrics, []int{16, 64}) }},
		{"topology full", true, func() (any, error) { return TopologyData(grid.Cube(32), 2, fabrics, []int{16, 64, 256}) }},
		{"fig6 quick", false, func() (any, error) { return Fig6Data(append([]int{16}, fig6Ps...), []int{16}) }},
		{"fig6 full", true, func() (any, error) { return Fig6Data(fig6Ps, []int{1024}) }},
	}
	want := readDigests(t, path)
	var manifest strings.Builder
	for _, c := range cases {
		wantSum, listed := want[c.id]
		delete(want, c.id)
		t.Run(strings.ReplaceAll(c.id, " ", "_"), func(t *testing.T) {
			if c.full && (testing.Short() || raceEnabled) {
				t.Skip("full size")
			}
			pts, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			sum := digest(t, pts)
			fmt.Fprintf(&manifest, "%s  %s\n", sum, c.id)
			if !*update && sum != wantSum {
				if !listed {
					t.Errorf("%s has no line for %q (run with -update to record)", path, c.id)
				} else {
					t.Errorf("%s results drifted from %s", c.id, path)
				}
			}
		})
	}
	for id := range want {
		t.Errorf("%s lists %q, which the test no longer runs", path, id)
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(path, []byte(manifest.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readDigests maps each id of a digest manifest to its digest; under
// -update it returns an empty map.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	want := map[string]string{}
	if *update {
		return want
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if sum, id, ok := strings.Cut(line, "  "); ok {
			want[id] = sum
		}
	}
	return want
}

// digest hashes v field by field and element by element: every float as
// its math.Float64bits, every integer as a 64-bit word, and every string,
// slice and array after its length, so that no two different values share
// an encoding.
func digest(t *testing.T, v any) string {
	t.Helper()
	h := sha256.New()
	word := func(u uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, u)) }
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch {
		case v.CanFloat():
			word(math.Float64bits(v.Float()))
		case v.CanInt():
			word(uint64(v.Int()))
		case v.CanUint():
			word(v.Uint())
		case v.Kind() == reflect.String:
			word(uint64(v.Len()))
			h.Write([]byte(v.String()))
		case v.Kind() == reflect.Slice, v.Kind() == reflect.Array:
			word(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case v.Kind() == reflect.Interface:
			walk(v.Elem())
		default:
			t.Fatalf("digest: no encoding for %s", v.Type())
		}
	}
	walk(reflect.ValueOf(v))
	return fmt.Sprintf("%x", h.Sum(nil))
}
