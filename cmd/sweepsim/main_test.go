package main

import (
	"bytes"
	"strings"
	"testing"
)

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
