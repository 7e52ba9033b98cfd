package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"testing"

	"repro/internal/config"
)

// TestExampleGoldenJSONL pins the built-in example campaign's JSONL output
// to the bytes produced before the interconnect subsystem landed
// (testdata/example_golden.jsonl, recorded at commit 5099c2d). The example
// sweep is entirely bus-only, so every row must stay byte-identical: the
// interconnect must cost bus-only runs nothing — no timing drift, no new
// JSON fields, no encoding changes.
//
// To bless an intentional output change, regenerate the file with
//
//	go run ./cmd/campaign -builtin example -workers 4 -quiet \
//	    -out internal/campaign/testdata/example_golden.jsonl
//
// and explain the drift in the commit message.
func TestExampleGoldenJSONL(t *testing.T) {
	want, err := os.ReadFile("testdata/example_golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	res, err := newEngine(t, Config{Workers: 4}).ExecuteSpec(Example())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, res); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gotRows, wantRows := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range wantRows {
		if i >= len(gotRows) {
			t.Fatalf("output truncated at row %d of %d", i, len(wantRows))
		}
		if !bytes.Equal(gotRows[i], wantRows[i]) {
			t.Fatalf("row %d drifted from the pre-interconnect golden:\n got: %s\nwant: %s",
				i, gotRows[i], wantRows[i])
		}
	}
	t.Fatalf("output grew from %d to %d rows", len(wantRows), len(gotRows))
}

// TestBuiltinJSONLPinned pins the JSONL bytes of the builtin sweeps that CI
// otherwise compares only variant against variant, so a change that moves
// every variant alike fails here. Each line of testdata/jsonl.sha256 is the
// SHA-256 of one builtin's JSONL at one shard count. topologies is pinned
// at shards 1, 2, 3 and 8: every count ≥ 2 must share one digest, while
// serial runs keep the legacy same-time event order. flagship (a few
// seconds) is skipped under -short. To bless an intentional change:
//
//	go test ./internal/campaign -run TestBuiltinJSONLPinned -update
//
// and explain the changed lines in the commit message.
func TestBuiltinJSONLPinned(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update rewrites every line: run it without -short")
	}
	m := openManifest(t, "testdata/jsonl.sha256")
	sharded := map[string]int{} // digest → sharded topology variants
	for _, c := range []struct {
		builtin string
		shards  int // 0: the spec's own
	}{
		{"topologies", 1}, {"topologies", 2}, {"topologies", 3}, {"topologies", 8},
		{"collectives", 0}, {"workloads", 0}, {"flagship", 0},
	} {
		id := c.builtin
		if c.shards > 0 {
			id = fmt.Sprintf("%s shards=%d", c.builtin, c.shards)
		}
		if c.builtin == "flagship" && testing.Short() {
			m.skip(id)
			continue
		}
		spec, _ := Builtin(c.builtin)
		res, err := newEngine(t, Config{Shards: c.shards}).ExecuteSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h := sha256.New()
		if err := WriteJSONL(h, res); err != nil {
			t.Fatal(err)
		}
		sum := h.Sum(nil)
		m.check(id, sum)
		if c.shards > 1 {
			sharded[string(sum)]++
		}
	}
	if len(sharded) != 1 {
		t.Errorf("topologies at shards 2, 3 and 8 gave %d different digests, want 1", len(sharded))
	}
	m.close()
}

// TestTopologiesDeterministicAcrossWorkers is the acceptance check of the
// interconnect sweep: byte-identical JSONL for 1 and 8 workers, link
// statistics included.
func TestTopologiesDeterministicAcrossWorkers(t *testing.T) {
	runs, err := Topologies().Expand()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(workers int) []byte {
		res, err := newEngine(t, Config{Workers: workers}).Execute(runs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	if !bytes.Contains(serial, []byte(`"topology":"torus2d"`)) ||
		!bytes.Contains(serial, []byte(`"topology":"fattree"`)) {
		t.Fatal("topologies sweep rows carry no topology field")
	}
	if par := encode(8); !bytes.Equal(serial, par) {
		t.Error("workers=8 produced different JSONL bytes than workers=1")
	}
}

// TestCollectivesDeterministicAcrossWorkers is the acceptance check of the
// collective sweep: the "collectives" builtin — every simulated algorithm
// over bus-only, torus and fat-tree machines — must emit byte-identical
// JSONL for 1 and 8 workers, which also exercises collective expansion on
// Reset-reused simulators across all rank counts.
func TestCollectivesDeterministicAcrossWorkers(t *testing.T) {
	runs, err := Collectives().Expand()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(workers int) []byte {
		res, err := newEngine(t, Config{Workers: workers}).Execute(runs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	for _, want := range []string{
		`"collective":"allreduce/auto/8B"`,
		`"collective":"allreduce/ring/8B"`,
		`"collective":"allreduce/recdouble/8B"`,
		`"collective":"allreduce/ring/65536B"`,
		`"collective":"allreduce/recdouble/65536B"`,
	} {
		if !bytes.Contains(serial, []byte(want)) {
			t.Fatalf("collectives sweep rows missing %s", want)
		}
	}
	if par := encode(8); !bytes.Equal(serial, par) {
		t.Error("workers=8 produced different JSONL bytes than workers=1")
	}
}

// TestNoCollectiveRowsUnchanged is the omitempty regression check: a run
// without a convergence collective must encode to exactly the same bytes as
// before the collective fields existed. It diffs the same run's row with
// and without the collective enabled: the enabled row must add only the
// "collective" key, the disabled row none at all — so bus-only/no-
// collective campaigns (the example golden) stay byte-identical.
func TestNoCollectiveRowsUnchanged(t *testing.T) {
	g := config.GridSpec{Nx: 24, Ny: 24, Nz: 24}
	spec := func(conv *config.ConvergenceSpec) Spec {
		return Spec{
			Name:     "omitempty",
			Apps:     []AppDim{{Preset: "lu", Grid: &g, Convergence: conv}},
			Machines: []MachineDim{{MachineSpec: config.MachineSpec{Preset: "xt4", CoresPerNode: 2}}},
			Ranks:    []int{16},
		}
	}
	encode := func(s Spec) []byte {
		res, err := newEngine(t, Config{Workers: 1}).ExecuteSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	pre := encode(spec(nil))
	if bytes.Contains(pre, []byte(`"collective"`)) {
		t.Fatalf("no-collective row leaks a collective field:\n%s", pre)
	}
	post := encode(spec(&config.ConvergenceSpec{Bytes: 8, Alg: "ring"}))
	if !bytes.Contains(post, []byte(`"collective":"allreduce/ring/8B"`)) {
		t.Fatalf("collective row missing its field:\n%s", post)
	}
	// Key inventory must differ by exactly {"collective"}: new fields must
	// never creep into rows that do not use them.
	preKeys, postKeys := jsonKeys(t, pre), jsonKeys(t, post)
	delete(postKeys, "collective")
	if !maps.Equal(preKeys, postKeys) {
		t.Errorf("row key sets diverged beyond the collective field:\n pre: %v\npost: %v", preKeys, postKeys)
	}
}

// jsonKeys returns the key set of a single JSONL row.
func jsonKeys(t *testing.T, row []byte) map[string]bool {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(row), &m); err != nil {
		t.Fatalf("bad JSONL row: %v", err)
	}
	keys := map[string]bool{}
	for k := range m {
		keys[k] = true
	}
	return keys
}
