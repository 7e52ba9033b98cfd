package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.sha256")

// TestRunHtileFollowsPreset: -htile 0 (the default) means the preset's own
// tile height, and an explicit -htile is honoured for every preset.
func TestRunHtileFollowsPreset(t *testing.T) {
	small := []string{"-cube", "16", "-p", "16", "-iters", "1"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-app", "sweep3d"}, " Htile=2 "},
		{[]string{"-app", "chimaera"}, " Htile=1 "},
		{[]string{"-app", "lu"}, " Htile=1 "},
		{[]string{"-app", "lu", "-htile", "4"}, " Htile=4 "},
	} {
		var out bytes.Buffer
		if err := run(append(tc.args, small...), &out); err != nil {
			t.Fatalf("run %v: %v", tc.args, err)
		}
		if first, _, _ := strings.Cut(out.String(), "\n"); !strings.Contains(first, tc.want) {
			t.Errorf("run %v: header %q lacks %q", tc.args, first, tc.want)
		}
	}
}

// TestRunUnknownApp: an unknown preset is an error return, not os.Exit.
func TestRunUnknownApp(t *testing.T) {
	err := run([]string{"-app", "hydra"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "unknown app preset") {
		t.Errorf("unknown app: %v", err)
	}
}

// TestRunRefusesBadShape: a grid edge below one and a processor array
// wider than the grid are errors, as they are for a campaign run, not a
// panic or a simulation of empty tiles.
func TestRunRefusesBadShape(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cube", "0"}, "-cube 0: the grid edge must be positive"},
		{[]string{"-cube", "-4"}, "-cube -4: the grid edge must be positive"},
		{[]string{"-cube", "4", "-p", "64"}, "8x8 processor array exceeds the 4x4x4 grid"},
		{[]string{"-cube", "8", "-p", "11"}, "11x1 processor array exceeds the 8x8x8 grid"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v = %v, want an error containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed a report before failing:\n%s", tc.args, out.Bytes())
		}
	}
}

// TestOutputPinned runs every preset at the default size on 1, 2 and 4
// shards and pins each report byte for byte: a line of
// testdata/output.sha256 is the digest that `go run ./cmd/sweepsim <args>
// | sha256sum` prints, then the arguments. The 2- and 4-shard reports also
// agree everywhere but the parallel: line, which describes the scheduler.
// To bless an intentional change:
//
//	go test ./cmd/sweepsim -run TestOutputPinned -update
//
// and explain the changed lines in the commit message.
func TestOutputPinned(t *testing.T) {
	const path = "testdata/output.sha256"
	want := readManifest(t, path)
	var manifest strings.Builder
	for _, app := range []string{"lu", "sweep3d", "chimaera"} {
		var sharded []string
		for _, shards := range []string{"1", "2", "4"} {
			id := "-app " + app + " -shards " + shards
			var out bytes.Buffer
			if err := run(strings.Fields(id), &out); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			sum := fmt.Sprintf("%x", sha256.Sum256(out.Bytes()))
			fmt.Fprintf(&manifest, "%s  %s\n", sum, id)
			if !*update && sum != want[id] {
				t.Errorf("%s: output drifted from %s:\n%s", id, path, out.Bytes())
			}
			delete(want, id)
			if shards != "1" {
				sharded = append(sharded, withoutLine(out.String(), "parallel:"))
			}
		}
		if sharded[0] != sharded[1] {
			t.Errorf("%s: the 2- and 4-shard reports differ outside the parallel: line:\n%s\n%s", app, sharded[0], sharded[1])
		}
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

// readManifest maps each id of a digest manifest to its digest; under
// -update it returns an empty map.
func readManifest(t *testing.T, path string) map[string]string {
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

// withoutLine drops the lines of s that start with prefix.
func withoutLine(s, prefix string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, prefix) {
			b.WriteString(line)
		}
	}
	return b.String()
}
