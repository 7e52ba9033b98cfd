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
