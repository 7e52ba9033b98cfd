package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.sha256")

// TestOutputPinned pins the README walkthrough byte for byte: the -example
// spec, and the model sweep, simulation, profile and Gantt chart of that
// spec at P = 64. A line of testdata/output.sha256 is the digest that
// `go run ./cmd/plugplay <args> | sha256sum` prints, then the arguments,
// with <example> standing for a file holding the -example output. To
// bless an intentional change:
//
//	go test ./cmd/plugplay -run TestOutputPinned -update
//
// and explain the changed lines in the commit message.
func TestOutputPinned(t *testing.T) {
	const path = "testdata/output.sha256"
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
	example := filepath.Join(t.TempDir(), "app.json")
	var manifest strings.Builder
	for _, id := range []string{"-example", "-f <example> -p 64 -simulate -gantt"} {
		var out bytes.Buffer
		if err := run(strings.Fields(strings.ReplaceAll(id, "<example>", example)), &out); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if id == "-example" {
			if err := os.WriteFile(example, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(out.Bytes()))
		fmt.Fprintf(&manifest, "%s  %s\n", sum, id)
		if !*update && sum != want[id] {
			t.Errorf("%s: output drifted from %s:\n%s", id, path, out.Bytes())
		}
		delete(want, id)
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

// TestRunErrors: a missing -f is a usage error, and a bad spec or
// processor list is an error return, not os.Exit.
func TestRunErrors(t *testing.T) {
	if err := run(nil, new(bytes.Buffer)); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("no -f: %v, want flag.ErrHelp", err)
	}
	if err := run([]string{"-f", filepath.Join(t.TempDir(), "missing.json")}, new(bytes.Buffer)); err == nil {
		t.Error("missing spec file accepted")
	}
	example := filepath.Join(t.TempDir(), "app.json")
	var spec bytes.Buffer
	if err := run([]string{"-example"}, &spec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(example, spec.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-f", example, "-p", "64,x"}, new(bytes.Buffer)); err == nil {
		t.Error("processor list 64,x accepted")
	}
	// The model evaluates any P, but a processor array wider than the grid
	// has no simulation: the model row prints, then the error returns.
	var out bytes.Buffer
	err := run([]string{"-f", example, "-p", "65536", "-simulate"}, &out)
	if want := "256x256 processor array exceeds the 240x240x240 grid"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("-p 65536 -simulate on the 240³ grid: %v, want an error containing %q", err, want)
	}
	if !strings.Contains(out.String(), "     65536 ") || strings.Contains(out.String(), "# simulation") {
		t.Errorf("-p 65536 -simulate printed:\n%s", out.Bytes())
	}
}
