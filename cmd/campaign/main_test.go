package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseRange(t *testing.T) {
	for _, tc := range []struct {
		in          string
		part, parts int
		ok          bool
	}{
		{"", 0, 0, true},
		{"0/4", 0, 4, true},
		{"3/4", 3, 4, true},
		{"0/1", 0, 1, true},
		{"1/4/8", 0, 0, false},
		{"1/4x", 0, 0, false},
		{"x/4", 0, 0, false},
		{"1/", 0, 0, false},
		{"/4", 0, 0, false},
		{"1", 0, 0, false},
		{"1 /4", 0, 0, false},
		{"4/4", 0, 0, false},
		{"-1/4", 0, 0, false},
		{"0/0", 0, 0, false},
	} {
		part, parts, err := parseRange(tc.in)
		if (err == nil) != tc.ok || part != tc.part || parts != tc.parts {
			t.Errorf("parseRange(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, part, parts, err, tc.part, tc.parts, tc.ok)
		}
	}
}

// TestFlagInventory pins the command's flag surface. The result store is
// the only persistent state — resume and merge read it — so there is no
// -checkpoint flag.
func TestFlagInventory(t *testing.T) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"builtin", "cache-dir", "chrome-trace", "cpuprofile", "exectrace",
		"filter", "hist", "list", "memprofile", "merge", "out", "print-spec", "quiet",
		"range", "sample-every", "sample-out", "shards", "spec", "trace-windows", "workers"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flag inventory drifted:\n got %v\nwant %v", got, want)
	}
}

// TestFailedRunFlushesProfile: a failing invocation still runs the
// deferred cleanups, so the CPU profile it was asked for is written.
func TestFailedRunFlushesProfile(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.out")
	err := run([]string{"-builtin", "example", "-filter", "app=Nope", "-cpuprofile", cpu}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no runs after filtering") {
		t.Fatalf("run = %v, want the empty-filter error", err)
	}
	if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
		t.Errorf("profile after a failed run: %v (err %v), want a non-empty file", st, err)
	}
}

// TestRangePartsMerge runs the multi-process recipe in process: four range
// parts into one store directory, a merge byte-identical to the example
// golden, and a merge refused over a directory that lacks one part.
func TestRangePartsMerge(t *testing.T) {
	want, err := os.ReadFile("../../internal/campaign/testdata/example_golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	for i := 0; i < 4; i++ {
		args := []string{"-builtin", "example", "-range", fmt.Sprintf("%d/4", i), "-cache-dir", store, "-quiet"}
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
	}
	merged := filepath.Join(dir, "merged.jsonl")
	var stdout bytes.Buffer
	if err := run([]string{"-builtin", "example", "-merge", "-cache-dir", store, "-out", merged}, &stdout); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got, err := os.ReadFile(merged); err != nil || !bytes.Equal(got, want) {
		t.Errorf("merged JSONL differs from the golden (%v)", err)
	}
	if !strings.HasPrefix(stdout.String(), "merged 24 runs from ") {
		t.Errorf("merge printed %q", stdout.String())
	}

	if err := os.Remove(filepath.Join(store, "cache-2-of-4.jsonl")); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-builtin", "example", "-merge", "-cache-dir", store, "-out", merged, "-quiet"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "first missing indices [12 13 14 15 16 17]") ||
		!strings.Contains(err.Error(), "-hist and -shards") {
		t.Errorf("merge without part 2: %v", err)
	}
	if err := run([]string{"-builtin", "example", "-merge", "-out", merged}, io.Discard); err == nil {
		t.Error("-merge without -cache-dir succeeded")
	}
}

// TestRunErrorPaths: an unusable -out, -filter or -range fails before any
// run executes.
func TestRunErrorPaths(t *testing.T) {
	t.Run("unwritable output", func(t *testing.T) {
		dir := t.TempDir()
		blocker := filepath.Join(dir, "file")
		if err := os.WriteFile(blocker, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		store := filepath.Join(dir, "store")
		err := run([]string{"-builtin", "example", "-workers", "1", "-cache-dir", store,
			"-out", filepath.Join(blocker, "out.jsonl"), "-quiet"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "creating output directory") {
			t.Errorf("unwritable -out: %v, want the output-directory error", err)
		}
		if data, err := os.ReadFile(filepath.Join(store, "cache.jsonl")); err != nil || len(data) != 0 {
			t.Errorf("the store holds %d bytes (%v), want an empty file: a run executed", len(data), err)
		}
	})

	t.Run("invalid filter", func(t *testing.T) {
		for _, expr := range []string{"no-equals-sign", "bogus-key=x"} {
			if err := run([]string{"-builtin", "example", "-filter", expr, "-quiet"}, io.Discard); err == nil {
				t.Errorf("-filter %q accepted", expr)
			}
		}
	})

	t.Run("zero-run expansion", func(t *testing.T) {
		err := run([]string{"-builtin", "example", "-filter", "app=no-such-app", "-quiet"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "no runs after filtering") {
			t.Errorf("empty filtered expansion: %v", err)
		}
	})

	t.Run("panicking run", func(t *testing.T) {
		// A latency of 1e308 µs overflows the simulated clock, and the
		// event engine panics. The run fails alone: the command reports
		// it by name and still writes every row.
		dir := t.TempDir()
		spec := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(spec, []byte(`{"name": "overflow",
		  "apps": [{"preset": "sweep3d", "grid": {"nx": 24, "ny": 24, "nz": 24}}],
		  "machines": [{"preset": "xt4", "cores_per_node": 1}],
		  "ranks": [4, 16],
		  "loggp": [{"name": "baseline"}, {"name": "x", "scale": {"L": 1e308}}]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "out.jsonl")
		err := run([]string{"-spec", spec, "-workers", "1", "-out", out, "-quiet"}, io.Discard)
		if err == nil || err.Error() != "campaign: run Sweep3D/24x24x24/h2 × Cray XT4 (1 cores/node) × x × P=4: panic: des: non-finite event time +Inf" {
			t.Errorf("run = %v, want the first panicking run named", err)
		}
		if data, err := os.ReadFile(out); err != nil || bytes.Count(data, []byte("\n")) != 4 {
			t.Errorf("-out holds %q (%v), want all 4 rows", data, err)
		}
	})

	t.Run("invalid range", func(t *testing.T) {
		for _, rg := range []string{"4/4", "-1/4"} {
			err := run([]string{"-builtin", "example", "-range", rg, "-quiet"}, io.Discard)
			if err == nil || !strings.Contains(err.Error(), "out of bounds") {
				t.Errorf("-range %s: %v, want an out-of-bounds error", rg, err)
			}
		}
	})
}

// TestRangedRecording: the flight-recorded run is the campaign's first, so
// only part 0 of a ranged campaign records, at the paths given and
// byte-identical to an unranged recording; other parts write no trace,
// and a part past the run count executes nothing and writes no -out file
// and no store file.
func TestRangedRecording(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	record := func(trace string, extra ...string) {
		t.Helper()
		args := append([]string{"-builtin", "example", "-workers", "2", "-chrome-trace", path(trace), "-quiet"}, extra...)
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	record("whole.json")
	record("r0.json", "-range", "0/4")
	record("r2.json", "-range", "2/4")

	whole, err := os.ReadFile(path("whole.json"))
	if err != nil {
		t.Fatal(err)
	}
	if r0, err := os.ReadFile(path("r0.json")); err != nil || !bytes.Equal(r0, whole) {
		t.Errorf("-range 0/4 trace differs from the unranged recording (%v)", err)
	}
	if _, err := os.Stat(path("r2.json")); !os.IsNotExist(err) {
		t.Errorf("-range 2/4 wrote a trace (stat: %v)", err)
	}

	if err := run([]string{"-builtin", "example", "-range", "30/40", "-out", path("r30.jsonl"), "-cache-dir", path("store"), "-quiet"}, io.Discard); err != nil {
		t.Fatalf("-range 30/40: %v", err)
	}
	if _, err := os.Stat(path("r30.jsonl")); !os.IsNotExist(err) {
		t.Errorf("-range 30/40 of 24 runs wrote -out (stat: %v)", err)
	}
	if _, err := os.Stat(filepath.Join(path("store"), "cache-30-of-40.jsonl")); !os.IsNotExist(err) {
		t.Errorf("-range 30/40 of 24 runs left a store file, which every later open of the directory loads (stat: %v)", err)
	}
}
