package campaign

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/stats"
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

// rehydrate overwrites the result's identity fields from the run it is
// being served for. Cached results are shared between runs whose content
// key matches even when their sweep coordinates differ (a relabeled
// machine, a different expansion index), so the physics comes from the
// cache and the coordinates always come from the run at hand — making a
// warm-cache row byte-identical to a cold one.
func (res *RunResult) rehydrate(r Run) {
	res.Schema = SchemaVersion
	res.Index = r.Index
	res.Campaign = r.Campaign
	res.App = r.App
	res.Grid = r.Grid
	res.Htile = r.Htile
	res.Machine = r.Machine
	res.Override = r.Override
	res.P = r.P
	res.Iterations = r.Iterations
	res.Collective = r.Collective
	res.Workload = r.Workload
	res.WallSeconds = 0
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
// lowest-indexed run failure. Output is independent of Workers and of the
// cache state: a run served from the configured ResultStore is
// byte-identical to a simulated one, and every simulated run that
// succeeds is put into the store.
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
							res.rehydrate(r)
							results[i] = res
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
		res.rehydrate(r)
		results[i] = res
	}
	if len(missing) > 0 {
		return fmt.Errorf("campaign: merge: %d of %d runs are not in the store; first missing indices %v (execute their ranges first, with the same key mode)",
			len(missing), len(runs), missing[:min(len(missing), 8)])
	}
	return WriteJSONL(w, results)
}

// executeRun evaluates the analytic model and the simulator for one run.
// rec is the run's recorder (see Config.recorderFor); cfg supplies the
// shard override and the histogram switch. simp points at the worker's
// simulator slot: nil on the worker's first run, Reset and reused
// afterwards.
func executeRun(r Run, rec *obs.Recorder, cfg Config, simp **simmpi.Sim) RunResult {
	start := time.Now()
	var out RunResult
	out.rehydrate(r)
	fail := func(err error) RunResult {
		out.Error = err.Error()
		out.WallSeconds = time.Since(start).Seconds()
		return out
	}

	bm := r.bm.WithIterations(r.Iterations)
	rep, err := core.New(bm.App, r.mach).Evaluate(r.dec)
	if err != nil {
		return fail(err)
	}
	sched, err := bm.Schedule(r.dec, r.Iterations)
	if err != nil {
		return fail(err)
	}
	topo, err := simnet.NewMachineTopology(r.mach, r.dec)
	if err != nil {
		return fail(err)
	}
	shards, _ := cfg.execMode(r)
	opt := simmpi.Options{Shards: shards, Obs: rec}
	if *simp == nil {
		s, err := simmpi.NewWithOptions(topo, opt)
		if err != nil {
			return fail(err)
		}
		*simp = s
	} else if err := (*simp).ResetWithOptions(topo, opt); err != nil {
		return fail(err)
	}
	sim := *simp
	for rank, prog := range sched.Programs() {
		sim.SetProgram(rank, prog)
	}
	res, err := sim.Run()
	if err != nil {
		return fail(err)
	}

	out.ModelMicros = rep.Total
	out.SimMicros = res.Time
	out.RelErr = stats.SignedRelErr(rep.Total, res.Time)
	out.AbsErr = stats.RelErr(rep.Total, res.Time)
	out.Band = metrics.ErrorBand(out.AbsErr)
	out.RunsPerMon = metrics.TimeStepsPerMonth(res.Time)
	out.Events = res.Events
	out.Messages = res.Sends
	out.BytesSent = res.BytesSent
	out.BusWait = res.BusWait
	if ic := topo.Interconnect(); ic != nil {
		out.Topology = ic.Spec().String()
		out.LinkWait = res.LinkWait
		out.LinkQueued = res.LinkQueued
		if res.Time > 0 {
			out.MaxLinkUtil = ic.MaxLinkBusy() / res.Time
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
		out.Hists = rh
	}
	out.WallSeconds = time.Since(start).Seconds()
	return out
}
