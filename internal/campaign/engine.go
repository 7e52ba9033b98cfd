package campaign

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/topo"
)

// RunResult is the record a campaign emits for one run: the schema version,
// the run's coordinates, the analytic model's prediction, the simulator's
// result and the error metrics between them, plus traffic and contention
// counters.
//
// Every exported JSON field is a deterministic function of the run — wall
// time is kept out of the JSONL encoding so output is byte-identical
// regardless of worker count, cache state or host speed.
type RunResult struct {
	// Schema is the row's schema version (see SchemaVersion).
	Schema     int    `json:"schema_version"`
	Index      int    `json:"index"`
	Campaign   string `json:"campaign"`
	App        string `json:"app"`
	Grid       string `json:"grid"`
	Htile      int    `json:"htile"`
	Machine    string `json:"machine"`
	Override   string `json:"override"`
	P          int    `json:"p"`
	Iterations int    `json:"iterations"`

	// Topology names the inter-node fabric for non-flat-wire machines.
	// It is omitted (with the link counters below) on bus-only runs so
	// their JSONL rows stay byte-identical to the pre-interconnect output.
	Topology string `json:"topology,omitempty"`

	// Collective names the per-iteration convergence collective, e.g.
	// "allreduce/ring/8B". It is omitted for runs without one so their
	// rows stay byte-identical to pre-collectives output.
	Collective string `json:"collective,omitempty"`

	// Workload names the app's per-tile workload spec, e.g.
	// "lognormal(σ=0.4,seed=7)+noise(0.5×25µs)". It is omitted for the
	// implicit uniform workload so workload-less rows stay byte-identical
	// to pre-workload output.
	Workload string `json:"workload,omitempty"`

	ModelMicros float64 `json:"model_us"`
	SimMicros   float64 `json:"sim_us"`
	RelErr      float64 `json:"rel_err"` // signed, (model − sim)/sim
	AbsErr      float64 `json:"abs_err"` // |rel_err|
	Band        string  `json:"band"`    // paper accuracy band (metrics.ErrorBand)
	RunsPerMon  float64 `json:"runs_per_month"`

	Events    uint64  `json:"events"`
	Messages  uint64  `json:"messages"`
	BytesSent uint64  `json:"bytes_sent"`
	BusWait   float64 `json:"bus_wait_us"`

	// Interconnect link contention (zero and omitted for bus-only runs).
	LinkWait    float64 `json:"link_wait_us,omitempty"`
	LinkQueued  uint64  `json:"link_queued,omitempty"`
	MaxLinkUtil float64 `json:"max_link_util,omitempty"`

	// Hists carries the run's duration-histogram percentiles when the
	// engine collects them (Config.Hist); omitted otherwise so rows of
	// histogram-less campaigns stay byte-identical to earlier output.
	// Only shard-invariant histograms appear here — the shard count is not
	// part of a run's identity, so rows must not depend on it.
	Hists *RunHists `json:"hists,omitempty"`

	Error string `json:"error,omitempty"`

	// WallSeconds is the host wall time the run took (zero when the run
	// was served from the result store). It is reported in summaries but
	// deliberately excluded from JSONL (see type doc).
	WallSeconds float64 `json:"-"`
}

// outcome is what a run's content key determines: the model's prediction
// and the simulator's counters, without the run's coordinates or anything
// derived from them. It is the one record per run that the result stores
// and the campaign server keep (80 bytes); Run.row turns it back into the
// run's JSONL row.
type outcome struct {
	model, sim              float64 // µs
	events, messages, bytes uint64
	busWait, linkWait       float64 // µs
	linkQueued              uint64
	maxLinkUtil             float64
	hists                   *RunHists
}

// outcomeOf takes the outcome back out of a row.
func outcomeOf(res *RunResult) outcome {
	return outcome{
		model: res.ModelMicros, sim: res.SimMicros,
		events: res.Events, messages: res.Messages, bytes: res.BytesSent,
		busWait: res.BusWait, linkWait: res.LinkWait,
		linkQueued: res.LinkQueued, maxLinkUtil: res.MaxLinkUtil,
		hists: res.Hists,
	}
}

// result renders the outcome as a row that holds only its content fields,
// the form in which a ResultStore hands it back.
func (o *outcome) result() RunResult {
	return RunResult{
		Schema:      SchemaVersion,
		ModelMicros: o.model, SimMicros: o.sim,
		Events: o.events, Messages: o.messages, BytesSent: o.bytes,
		BusWait: o.busWait, LinkWait: o.linkWait,
		LinkQueued: o.linkQueued, MaxLinkUtil: o.maxLinkUtil,
		Hists: o.hists,
	}
}

// identity is the part of the run's row that comes from its coordinates.
func (r Run) identity() RunResult {
	return RunResult{
		Schema:     SchemaVersion,
		Index:      r.Index,
		Campaign:   r.Campaign,
		App:        r.App,
		Grid:       r.Grid,
		Htile:      r.Htile,
		Machine:    r.Machine,
		Override:   r.Override,
		P:          r.P,
		Iterations: r.Iterations,
		Collective: r.Collective,
		Workload:   r.Workload,
	}
}

// row builds the run's JSONL row from its outcome. It is the one place rows
// are made — for a simulated run, a store hit, a merge and the server's
// results — so every path writes the same bytes: the coordinates and the
// fabric name come from the run, the numbers from the outcome, and the
// error metrics, accuracy band and runs per month are derived here.
func (r Run) row(o outcome) RunResult {
	res := r.identity()
	res.ModelMicros, res.SimMicros = o.model, o.sim
	res.RelErr = stats.SignedRelErr(o.model, o.sim)
	res.AbsErr = stats.RelErr(o.model, o.sim)
	res.Band = metrics.ErrorBand(res.AbsErr)
	res.RunsPerMon = metrics.TimeStepsPerMonth(o.sim)
	res.Events, res.Messages, res.BytesSent = o.events, o.messages, o.bytes
	res.BusWait = o.busWait
	if ic := r.mach.Interconnect; ic.Kind != topo.Bus {
		res.Topology = ic.String()
	}
	res.LinkWait, res.LinkQueued, res.MaxLinkUtil = o.linkWait, o.linkQueued, o.maxLinkUtil
	res.Hists = o.hists
	return res
}

// HistSummary is the JSONL rendering of one duration histogram: the
// observation count and the bucket-quantised percentiles in µs. All values
// derive from integer bucket counts, so they are byte-identical for every
// worker and shard count.
type HistSummary struct {
	N   uint64  `json:"n"`
	P50 float64 `json:"p50_us"`
	P90 float64 `json:"p90_us"`
	P99 float64 `json:"p99_us"`
}

// RunHists bundles a run's histogram summaries. LinkDelay is omitted on
// flat-wire runs (no interconnect, no link events).
type RunHists struct {
	RecvWait   HistSummary  `json:"recv_wait"`
	MsgLatency HistSummary  `json:"msg_latency"`
	LinkDelay  *HistSummary `json:"link_delay,omitempty"`
}

func summarizeHist(h *obs.Hist) HistSummary {
	return HistSummary{N: h.N(), P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99)}
}

// Engine executes campaign runs on a pool of workers, each owning one
// reusable simulator, under the Config it was built with by NewEngine.
type Engine struct {
	cfg   Config
	stats execCounters
}

// Stats reports what the engine did across its Execute calls.
func (e *Engine) Stats() ExecStats { return e.stats.snapshot() }

// workers resolves the effective pool size for n runs.
func (c Config) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// execMode resolves the run's simulator shard count (the config's
// override, else the spec's) and the key mode that count and the config
// imply: every sharded count runs the canonical event order.
func (c Config) execMode(r Run) (shards int, mode KeyMode) {
	shards = c.Shards
	if shards <= 0 {
		shards = r.shards
	}
	return shards, KeyMode{Hist: c.Hist, Canon: shards > 1}
}

// Execute runs every run and returns results indexed like the input. The
// result slice is complete even on error; the returned error is the
// lowest-indexed run failure. A run that panics fails alone (see
// executeRun): the other runs, and the process, carry on. Output is
// independent of Workers and of the cache state: a run served from the
// configured ResultStore is byte-identical to a simulated one, and every
// simulated run that succeeds is put into the store.
func (e *Engine) Execute(runs []Run) ([]RunResult, error) {
	cfg := e.cfg
	results := make([]RunResult, len(runs))
	if len(runs) == 0 {
		return results, nil
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var tally ExecStats
	finish := func(i int, simulated bool) {
		mu.Lock()
		tally.Runs++
		if simulated {
			tally.Simulated++
		} else {
			tally.CacheHits++
		}
		if cfg.OnResult != nil {
			cfg.OnResult(results[i])
		}
		mu.Unlock()
	}
	for w := 0; w < cfg.workers(len(runs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sim *simmpi.Sim // lazily built, then reused via Reset
			var scratch []byte  // content-key buffer, reused across runs
			for i := range jobs {
				r := runs[i]
				var key RunKey
				if cfg.Store != nil {
					_, mode := cfg.execMode(r)
					key, scratch = r.ContentKey(mode, scratch)
					// The flight-recorded run always simulates: its purpose
					// is the recorder's streams, which a store cannot serve.
					// Its row is a plain run's, so it is still put below.
					if cfg.Obs == nil || i != 0 {
						if res, ok := cfg.Store.Get(key); ok {
							results[i] = r.row(outcomeOf(&res))
							finish(i, false)
							continue
						}
					}
				}
				res := executeRun(r, cfg.recorderFor(i), cfg, &sim)
				results[i] = res
				if cfg.Store != nil && res.Error == "" {
					cfg.Store.Put(key, res)
				}
				finish(i, true)
			}
		}()
	}
	for i := range runs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	e.stats.add(tally)
	for i := range results {
		if results[i].Error != "" {
			return results, fmt.Errorf("campaign: run %s: %s", runs[i].Key(), results[i].Error)
		}
	}
	return results, nil
}

// Merge writes the JSONL of runs to w from the engine's store, without
// simulating anything: it looks up each run under the engine's key mode
// and writes the rows in the order given — for a whole campaign's run
// list, byte-identical to a single-process run. If any run is missing,
// Merge writes nothing and returns an error naming the first missing
// indices. The key mode (Hist, and Shards through the event order) is
// part of every key, so the engine must be configured like the ranges
// that filled the store.
func (e *Engine) Merge(runs []Run, w io.Writer) error {
	if e.cfg.Store == nil {
		return fmt.Errorf("campaign: merge needs a result store")
	}
	results := make([]RunResult, len(runs))
	var missing []int
	var scratch []byte
	for i, r := range runs {
		_, mode := e.cfg.execMode(r)
		var key RunKey
		key, scratch = r.ContentKey(mode, scratch)
		res, ok := e.cfg.Store.Get(key)
		if !ok {
			missing = append(missing, r.Index)
			continue
		}
		results[i] = r.row(outcomeOf(&res))
	}
	if len(missing) > 0 {
		return fmt.Errorf("campaign: merge: %d of %d runs are not in the store; first missing indices %v (execute their ranges first, with the same key mode)",
			len(missing), len(runs), missing[:min(len(missing), 8)])
	}
	return WriteJSONL(w, results)
}

// executeRun evaluates the analytic model and the simulator for one run
// and returns its row. rec is the run's recorder (see Config.recorderFor);
// cfg supplies the shard override and the histogram switch. simp points at
// the worker's simulator slot: nil on the worker's first run, Reset and
// reused afterwards.
//
// A panic in the run — parameters that overflow the simulated clock, say —
// fails only this run: its row's Error carries the panic value's first
// line (a sharded run's panic goes on with the helper's stack), and the
// worker's simulator, whose state is unknown after a panic, is dropped, so
// the worker's next run builds a fresh one.
func executeRun(r Run, rec *obs.Recorder, cfg Config, simp **simmpi.Sim) (out RunResult) {
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			*simp = nil
			msg, _, _ := strings.Cut(fmt.Sprint(v), "\n")
			out = r.identity()
			out.Error = "panic: " + msg
		}
		out.WallSeconds = time.Since(start).Seconds()
	}()
	o, err := simulate(r, rec, cfg, simp)
	if err != nil {
		out = r.identity()
		out.Error = err.Error()
		return out
	}
	return r.row(o)
}

// simulate computes the run's outcome: the model's prediction and the
// simulator's counters.
func simulate(r Run, rec *obs.Recorder, cfg Config, simp **simmpi.Sim) (outcome, error) {
	bm := r.bm.WithIterations(r.Iterations)
	rep, err := core.New(bm.App, r.mach).Evaluate(r.dec)
	if err != nil {
		return outcome{}, err
	}
	sched, err := bm.Schedule(r.dec, r.Iterations)
	if err != nil {
		return outcome{}, err
	}
	tp, err := simnet.NewMachineTopology(r.mach, r.dec)
	if err != nil {
		return outcome{}, err
	}
	shards, _ := cfg.execMode(r)
	opt := simmpi.Options{Shards: shards, Obs: rec}
	if *simp == nil {
		s, err := simmpi.NewWithOptions(tp, opt)
		if err != nil {
			return outcome{}, err
		}
		*simp = s
	} else if err := (*simp).ResetWithOptions(tp, opt); err != nil {
		return outcome{}, err
	}
	sim := *simp
	for rank, prog := range sched.Programs() {
		sim.SetProgram(rank, prog)
	}
	res, err := sim.Run()
	if err != nil {
		return outcome{}, err
	}

	if math.IsInf(rep.Total, 0) || math.IsNaN(rep.Total) || math.IsInf(res.Time, 0) || math.IsNaN(res.Time) {
		// JSON has no spelling for either, so the row could not be written.
		return outcome{}, fmt.Errorf("campaign: non-finite result: model %v µs, simulated %v µs", rep.Total, res.Time)
	}
	o := outcome{
		model: rep.Total, sim: res.Time,
		events: res.Events, messages: res.Sends, bytes: res.BytesSent,
		busWait: res.BusWait,
	}
	if ic := tp.Interconnect(); ic != nil {
		o.linkWait = res.LinkWait
		o.linkQueued = res.LinkQueued
		if res.Time > 0 {
			o.maxLinkUtil = ic.MaxLinkBusy() / res.Time
		}
	}
	if cfg.Hist && res.Hists != nil {
		rh := &RunHists{
			RecvWait:   summarizeHist(&res.Hists.RecvWait),
			MsgLatency: summarizeHist(&res.Hists.MsgLatency),
		}
		if res.Hists.LinkDelay.N() > 0 {
			ld := summarizeHist(&res.Hists.LinkDelay)
			rh.LinkDelay = &ld
		}
		o.hists = rh
	}
	return o, nil
}
