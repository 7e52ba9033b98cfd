package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTailPct(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.75}, {19, 0.75}, {40, 0.75}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {8000, 0.99}} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 40; n < 5000; n++ {
		if beyond := (1 - tailPct(n)) * float64(n); beyond < 10-1e-9 {
			t.Fatalf("n=%d: only %v samples beyond p%v", n, beyond, tailPct(n)*100)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := summarizeTail(xs, "ms")
	if s.N != 200 || s.Pct != 0.95 || math.Abs(s.Value-0.95*199) > 1e-9 {
		t.Errorf("summarizeTail = %+v, want n 200 at p95 = %v", s, 0.95*199)
	}
}

func TestSeedDeterminism(t *testing.T) {
	if !reflect.DeepEqual(sessionScales(1, 0, 500), sessionScales(1, 0, 500)) {
		t.Error("same seed gave different sessions")
	}
	if reflect.DeepEqual(sessionScales(1, 0, 500), sessionScales(2, 0, 500)) {
		t.Error("different seeds gave the same sessions")
	}
	if reflect.DeepEqual(sessionScales(1, 0, 500), sessionScales(1, 1, 500)) {
		t.Error("different rounds gave the same sessions")
	}
	if !reflect.DeepEqual(permutation(1, 1, 360), permutation(1, 1, 360)) {
		t.Error("same seed gave different run orders")
	}
	if reflect.DeepEqual(permutation(1, 1, 360), permutation(2, 1, 360)) {
		t.Error("different seeds gave the same run order")
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/des.(*eventHeap).pop":            "des",
		"repro/internal/campaign.Engine.executeAt.func1": "campaign",
		"repro/internal/stats.Percentiles":               "other",
		"net/http.(*conn).serve":                         "http_json",
		"encoding/json.(*encodeState).marshal":           "http_json",
		"runtime.mallocgc":                               "runtime",
		"sort.Float64s":                                  "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// run invokes the benchmark and decodes its result line.
func run(t *testing.T, args ...string) (int, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: no result line (%v); stderr:\n%s", args, err, stderr.String())
	}
	if code == 0 && !res.Correct {
		t.Errorf("%v: exit 0 but not correct", args)
	}
	return code, res
}

func TestCorruptedDigestFails(t *testing.T) {
	exps, err := loadExpectations(embeddedExpected)
	if err != nil {
		t.Fatal(err)
	}
	e := exps["model-scan/toy"]
	e.Digest = strings.Repeat("0", 64)
	exps["model-scan/toy"] = e
	corrupted, err := json.Marshal(exps)
	if err != nil {
		t.Fatal(err)
	}
	saved := embeddedExpected
	embeddedExpected = corrupted
	t.Cleanup(func() { embeddedExpected = saved })
	code, res := run(t, "-workload", "model-scan", "-toy", "-seconds", "0.05")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("corrupted digest: exit %d, correct %v, failed %d of %d", code, res.Correct, res.Failed, res.Attempted)
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that each prints every metric of its mode and passes its checks.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		code, res := run(t, "-workload", w.name, "-toy", "-seconds", "0.2", "-trace", "0")
		if code != 0 || res.Attempted == 0 {
			t.Errorf("%s: exit %d, attempted %d, failed %d", w.name, code, res.Attempted, res.Failed)
		}
		checkNames(t, w.name, res.Metrics, endToEnd)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v.Value)
			}
		}

		code, res = run(t, "-workload", w.name, "-toy", "-seconds", "0.2", "-trace", "1", "-trace-dir", dir)
		if code != 0 {
			t.Errorf("%s traced: exit %d, failed %d", w.name, code, res.Failed)
		}
		checkNames(t, w.name, res.Metrics, perLayer)
		for _, f := range []string{"spans.json", "cpu.pprof", "layers.json"} {
			if _, err := os.Stat(filepath.Join(dir, w.name+"-seed1", f)); err != nil {
				t.Errorf("%s traced: %v", w.name, err)
			}
		}
	}
}

func checkNames(t *testing.T, workload string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", workload, len(got), len(want))
	}
	for _, d := range want {
		if v, ok := got[d.name]; !ok || v.Unit != d.unit {
			t.Errorf("%s: metric %s missing or unit %q (want %q)", workload, d.name, v.Unit, d.unit)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the workloads and metrics this
// command reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
}
