// Command bench is the repository benchmark: one workload per invocation,
// its inputs generated from a seed, every end-to-end metric measured with
// tracing off and every output checked against committed values.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [-o report.json]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics — the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. A table with medians, quartiles and
// sample counts goes to standard error. The exit code is non-zero when any
// operation failed or any output mismatched. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// defaultSeed is the seed the committed time bits in expected.json belong to.
const defaultSeed = 1

// workers bounds every pool, shard count and client count: the benchmark
// is sized for a two-core host.
const workers = 2

type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the metrics every workload reports with tracing off; they
// and their bounds must match BENCHMARK.json (TestBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.10},
}

// perLayer lists the metrics of the traced run. tracedRun measures a layer
// the workload does not exercise on another workload's toy inputs, so such
// a value describes that layer, not this workload. README.md maps each
// metric to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{name: "des.hold_ns.256", unit: "ns"},
	{name: "des.hold_ns.4096", unit: "ns"},
	{name: "des.hold_pri_ns.2048", unit: "ns"},
	{name: "des.group.windows", unit: "count"},
	{name: "des.group.stalls_per_window", unit: "frac"},
	{name: "des.group.speedup", unit: "x", better: "higher"},
	{name: "wavefront.expand_ns_per_op", unit: "ns"},
	{name: "wavefront.ops_per_event", unit: "frac"},
	{name: "simnet.topology_build_ms", unit: "ms"},
	{name: "simmpi.setup_ms", unit: "ms"},
	{name: "simmpi.run_ns_per_event", unit: "ns"},
	{name: "simmpi.allocs_per_event", unit: "count"},
	{name: "topo.acquire_ns", unit: "ns"},
	{name: "core.evaluate_us.1024", unit: "us"},
	{name: "core.evaluate_us.16384", unit: "us"},
	{name: "core.evaluate_us.131072", unit: "us"},
	{name: "campaign.expand_ms", unit: "ms"},
	{name: "campaign.runkey_ns", unit: "ns"},
	{name: "campaign.jsonl_us_per_row", unit: "us"},
	{name: "campaign.store.get_hit_ns", unit: "ns"},
	{name: "campaign.store.get_miss_ns", unit: "ns"},
	{name: "campaign.store.put_ns", unit: "ns"},
	{name: "campaign.store.hit_ratio", unit: "frac", better: "higher"},
	{name: "campaign.run_wall_ms_p50", unit: "ms"},
	{name: "campaign.run_wall_ms_p99", unit: "ms"},
	{name: "campaign.worker_busy_frac", unit: "frac", better: "higher"},
	{name: "server.submit_ms_p50", unit: "ms"},
	{name: "server.submit_ms_p99", unit: "ms"},
	{name: "server.results_ms_p50", unit: "ms"},
	{name: "server.results_ms_p99", unit: "ms"},
	{name: "server.handler_ms_p50", unit: "ms"},
	{name: "server.polls_per_campaign", unit: "count"},
	{name: "server.retained_campaigns", unit: "count"},
	{name: "trace.overhead_frac", unit: "frac"},
}

func init() {
	for _, b := range cpuBuckets {
		perLayer = append(perLayer, metricDef{name: "cpu_share." + b, unit: "frac"})
	}
	for i := range perLayer {
		if perLayer[i].better == "" {
			perLayer[i].better = "lower"
		}
	}
}

// config sizes one measured phase.
type config struct {
	seed    uint64
	seconds float64
	toy     bool // tiny inputs for smoke runs; checked against their own expectations
}

// measurement is what one phase of a workload observed.
type measurement struct {
	Setup  []float64 // seconds per set-up
	Rates  []float64 // work items per second, one per timed repeat
	OpMS   []float64 // latency of each operation, ms
	HeapMB float64   // live heap after GC once the first timed repeat ends, its state reachable

	Attempted int
	Failed    int // failed operations and internal inconsistencies
	Mismatch  int // outputs that differ from expected.json
	Problems  []string

	Layer    map[string]float64 // per-layer metrics observed (traced phase)
	Observed expectation        // values -bless would commit
}

// fail records a failed operation.
func (m *measurement) fail(format string, args ...any) {
	m.Failed++
	m.problem(format, args...)
}

// mismatch records an output that differs from its committed value.
func (m *measurement) mismatch(format string, args ...any) {
	m.Mismatch++
	m.problem(format, args...)
}

func (m *measurement) problem(format string, args ...any) {
	if len(m.Problems) < 20 {
		m.Problems = append(m.Problems, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) layer(name string, v float64) {
	if m.Layer == nil {
		m.Layer = map[string]float64{}
	}
	m.Layer[name] = v
}

func (m *measurement) endToEnd() map[string]summary {
	return map[string]summary{
		"setup_s":          summarize(m.Setup, "s"),
		"throughput_per_s": summarize(m.Rates, "1/s"),
		"latency_p50_ms":   summarize(m.OpMS, "ms"),
		"latency_tail_ms":  summarizeTail(m.OpMS, "ms"),
		"heap_live_mb":     summarize([]float64{m.HeapMB}, "MiB"),
	}
}

// heapMB forces a collection and returns the live heap in MiB. Callers keep
// the workload's state reachable across the call.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// workloadDef is one workload; BENCHMARK.json and README.md say why each
// exists.
type workloadDef struct {
	name string
	run  func(cfg config, exp *expectation, tr *tracer) measurement
}

var workloads = []workloadDef{
	{"sim-sweep3d-4k", func(c config, e *expectation, t *tracer) measurement { return runSim(sweep3dCase(c.toy), c, e, t) }},
	{"sim-lu-4k-torus-sharded", func(c config, e *expectation, t *tracer) measurement { return runSim(luCase(c.toy), c, e, t) }},
	{"campaign-flagship-cold", runCampaign},
	{"served-mixed", runServed},
	{"model-scan", runModel},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1 adds a traced phase and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where a traced run writes spans, CPU profile and per-layer metrics")
	out := fs.String("o", "", "also write the full report as JSON to this file")
	bless := fs.Bool("bless", false, "commit this run's outputs to bench/expected.json; refused while any other check fails")
	toy := fs.Bool("toy", false, "tiny inputs, for a smoke run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	exps, err := loadExpectations(embeddedExpected)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	key := expKey(w.name, *toy)
	var exp *expectation
	if e, ok := exps[key]; ok {
		exp = &e
	}
	cfg := config{seed: *seed, seconds: *seconds, toy: *toy}

	rep := report{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	var all []measurement
	if *trace == 0 {
		m := w.run(cfg, exp, nil)
		all = append(all, m)
		rep.Metrics = m.endToEnd()
	} else {
		dir := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d", w.name, *seed))
		ms, layers, err := tracedRun(w, cfg, exps, dir)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		all = ms
		rep.Metrics = map[string]summary{}
		for _, d := range perLayer {
			rep.Metrics[d.name] = summary{Value: layers[d.name], Unit: d.unit, N: 1}
		}
		fmt.Fprintf(stderr, "bench: spans, cpu.pprof and layers.json written to %s\n", dir)
	}
	blessed := false
	if *bless {
		if err := doBless(all, key, *seed, stderr); err != nil {
			fmt.Fprintln(stderr, "bench: -bless refused:", err)
			return 1
		}
		blessed = true
	}
	for _, m := range all {
		rep.Attempted += m.Attempted
		rep.Failed += m.Failed
		if !blessed {
			rep.Failed += m.Mismatch
			rep.Problems = append(rep.Problems, m.Problems...)
		}
	}
	rep.Correct = rep.Failed == 0
	rep.print(stderr)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, _ := json.Marshal(rep.resultLine())
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// tracedRun measures the workload twice for half the time each — untraced,
// then with spans and a CPU profile — and assembles the per-layer metrics:
// the fixed layer ledger, the layers the traced phase observed, CPU shares
// by package, and the tracing overhead on throughput. A layer the workload
// does not exercise is measured on the toy inputs of the first other
// workload that does, so every per-layer time is a measurement. The second
// warm-up, the ledger and those toy runs make a traced run about five
// seconds longer than an untraced one (2-vCPU 2.1 GHz Xeon VM).
func tracedRun(w workloadDef, cfg config, exps map[string]expectation, dir string) ([]measurement, map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	lookup := func(key string) *expectation {
		if e, ok := exps[key]; ok {
			return &e
		}
		return nil
	}
	exp := lookup(expKey(w.name, cfg.toy))
	cfg.seconds /= 2
	plain := w.run(cfg, exp, nil)

	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, nil, err
	}
	tr := newTracer()
	traced := w.run(cfg, exp, tr)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, nil, err
	}

	layers := ledger(cfg.toy)
	for k, v := range traced.Layer {
		layers[k] = v
	}
	all := []measurement{plain, traced}
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		toy := o.run(config{seed: cfg.seed, seconds: 0.1, toy: true}, lookup(expKey(o.name, true)), newTracer())
		all = append(all, toy)
		for k, v := range toy.Layer {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
	}
	shares, err := cpuShares(prof.Name())
	if err != nil {
		return nil, nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	for _, b := range cpuBuckets {
		layers["cpu_share."+b] = shares[b]
	}
	if base := median(plain.Rates); base > 0 {
		layers["trace.overhead_frac"] = 1 - median(traced.Rates)/base
	}
	if err := tr.writeChrome(filepath.Join(dir, "spans.json")); err != nil {
		return nil, nil, err
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), layers); err != nil {
		return nil, nil, err
	}
	return all, layers, nil
}

type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r report) resultLine() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for k, s := range r.Metrics {
		l.Metrics[k] = metricValue{Value: s.Value, Unit: s.Unit}
	}
	return l
}

func (r report) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v: attempted %d, failed %d (failed_frac %.4g)\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := r.Metrics[k]
		pct := ""
		if s.Pct > 0 {
			pct = fmt.Sprintf(" (p%.4g)", s.Pct*100)
		}
		if s.N <= 1 {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, s.Value, s.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s q1 %-12.6g q3 %-12.6g n %d%s\n", k, s.Value, s.Unit, s.Q1, s.Q3, s.N, pct)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  FAIL:", p)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// --- expected values ---

// expectation holds a workload's committed outputs: seed-independent
// counts and digests, plus the simulated time's bits at defaultSeed.
type expectation struct {
	Events   uint64 `json:"events,omitempty"`
	Sends    uint64 `json:"sends,omitempty"`
	Bytes    uint64 `json:"bytes,omitempty"`
	TimeBits string `json:"time_bits_seed1,omitempty"`
	Digest   string `json:"sha256,omitempty"`
}

//go:embed expected.json
var embeddedExpected []byte

func expKey(name string, toy bool) string {
	if toy {
		return name + "/toy"
	}
	return name
}

func loadExpectations(data []byte) (map[string]expectation, error) {
	exps := map[string]expectation{}
	if err := json.Unmarshal(data, &exps); err != nil {
		return nil, fmt.Errorf("expected values: %w", err)
	}
	return exps, nil
}

// doBless merges the run's observed outputs under key into
// bench/expected.json, but only when every check other than the
// comparison with committed values passed.
func doBless(ms []measurement, key string, seed uint64, log io.Writer) error {
	if seed != defaultSeed {
		return fmt.Errorf("committed time bits belong to seed %d, not %d", defaultSeed, seed)
	}
	for _, m := range ms {
		if m.Failed > 0 {
			return errors.New("other checks failed")
		}
	}
	if ms[0].Observed == (expectation{}) {
		return errors.New("this workload has no committed values")
	}
	path := filepath.Join("bench", "expected.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	exps, err := loadExpectations(data)
	if err != nil {
		return err
	}
	exps[key] = ms[0].Observed
	if err := writeJSON(path, exps); err != nil {
		return err
	}
	fmt.Fprintf(log, "bench: blessed %s into %s\n", key, path)
	return nil
}
