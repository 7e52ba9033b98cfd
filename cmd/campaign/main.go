// Command campaign executes declarative scenario sweeps: a JSON spec of
// applications × machines × rank counts × LogGP overrides expands into a
// deterministic run list that a worker pool of reusable simulators churns
// through, comparing the plug-and-play model against the discrete-event
// simulator on every run.
//
// Usage:
//
//	campaign -spec sweep.json [-workers N] [-shards K] [-out runs.jsonl] [-filter expr]
//	campaign -builtin example            # small built-in demonstration sweep
//	campaign -builtin flagship           # the 240-run design-space sweep
//	campaign -spec sweep.json -list      # show the expanded runs, don't execute
//	campaign -print-spec example         # print a built-in spec as JSON
//
// The JSONL output contains only deterministic fields: the same spec
// produces byte-identical files for any -workers value. Filters restrict
// the sweep, e.g. -filter "app=LU,p=64|256,override=baseline".
//
// Serving-layer features (see campaign.Config):
//
//	-cache-dir DIR   memoize results by content address in DIR/cache.jsonl;
//	                 re-running an overlapping sweep serves repeated runs
//	                 from the cache, byte-identical to cold execution
//	-range I/N       execute only slice I of N of the filtered run list
//	                 (deterministic partitioning for multi-process sweeps)
//	-checkpoint DIR  append each finished row to a per-range checkpoint
//	                 file; re-running after a crash resumes where it died
//	-merge           reassemble the full -out JSONL from DIR's checkpoints
//	                 (byte-identical to a single-process run) and exit
//
// Observability: -hist attaches duration histograms to every run (a
// "hists" field per JSONL row), while -chrome-trace and -sample-every
// flight-record the first filtered run into a Chrome trace-event timeline
// and a time-series CSV. All three outputs are byte-identical for any
// -workers or -shards value. When a -range excludes the flight-recorded
// run, no trace artifacts are written; recorded artifacts from ranged runs
// get a ".lo-hi" path suffix so ranges never clobber each other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/obs"
	"repro/internal/prof"
)

func main() {
	specPath := flag.String("spec", "", "campaign spec file (JSON)")
	builtin := flag.String("builtin", "", "run a built-in campaign: "+strings.Join(campaign.BuiltinNames(), ", "))
	printSpec := flag.String("print-spec", "", "print a built-in campaign spec as JSON and exit")
	list := flag.Bool("list", false, "list the expanded runs without executing")
	filter := flag.String("filter", "", "restrict runs, e.g. \"app=LU,p=64|256,override=baseline\"")
	workers := cliflags.RegisterWorkers(flag.CommandLine)
	shards := cliflags.RegisterShards(flag.CommandLine, 0)
	out := flag.String("out", "", "write per-run results as JSONL to this file")
	rangeSpec := flag.String("range", "", "execute slice I of N of the run list, e.g. 0/4")
	ckptDir := flag.String("checkpoint", "", "checkpoint finished rows into this directory and resume from it")
	merge := flag.Bool("merge", false, "merge -checkpoint files into -out and exit (requires both flags)")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory (cache.jsonl inside it)")
	obsFlags := cliflags.RegisterObs(flag.CommandLine)
	quiet := flag.Bool("quiet", false, "suppress the progress ticker and summary tables")
	pf := prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := pf.Start()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	if *printSpec != "" {
		spec, ok := campaign.Builtin(*printSpec)
		if !ok {
			fail(fmt.Errorf("unknown built-in campaign %q (want %s)", *printSpec, strings.Join(campaign.BuiltinNames(), ", ")))
		}
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
		return
	}

	var spec campaign.Spec
	switch {
	case *specPath != "" && *builtin != "":
		fail(fmt.Errorf("use -spec or -builtin, not both"))
	case *specPath != "":
		s, err := campaign.LoadSpec(*specPath)
		if err != nil {
			fail(err)
		}
		spec = s
	case *builtin != "":
		s, ok := campaign.Builtin(*builtin)
		if !ok {
			fail(fmt.Errorf("unknown built-in campaign %q (want %s)", *builtin, strings.Join(campaign.BuiltinNames(), ", ")))
		}
		spec = s
	default:
		flag.Usage()
		os.Exit(2)
	}

	// The expansion is needed up front for -list, -merge (total run count)
	// and flight-recorder targeting; execution re-expands inside
	// ExecuteSpec, which is cheap and keeps one code path.
	runs, err := spec.Expand()
	if err != nil {
		fail(err)
	}
	if *filter != "" {
		f, err := campaign.ParseFilter(*filter)
		if err != nil {
			fail(err)
		}
		runs = f.Apply(runs)
	}
	if len(runs) == 0 {
		fail(fmt.Errorf("campaign %q has no runs after filtering", spec.Name))
	}

	if *list {
		for _, r := range runs {
			fmt.Printf("%4d  %s\n", r.Index, r.Key())
		}
		fmt.Printf("%d runs\n", len(runs))
		return
	}

	if *merge {
		if *ckptDir == "" || *out == "" {
			fail(fmt.Errorf("-merge needs -checkpoint and -out"))
		}
		if err := obs.EnsureParent(*out); err != nil {
			fail(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := campaign.MergeCheckpoints(*ckptDir, len(runs), f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Printf("merged %d runs from %s into %s\n", len(runs), *ckptDir, *out)
		}
		return
	}

	cfg := campaign.Config{
		Workers:       *workers,
		Shards:        *shards,
		Hist:          obsFlags.Hist,
		Filter:        *filter,
		Output:        *out,
		CheckpointDir: *ckptDir,
	}
	part, parts, err := parseRange(*rangeSpec)
	if err != nil {
		fail(err)
	}
	cfg.RangePart, cfg.RangeParts = part, parts

	var store *campaign.DiskStore
	if *cacheDir != "" {
		store, err = campaign.OpenDiskStore(filepath.Join(*cacheDir, "cache.jsonl"))
		if err != nil {
			fail(err)
		}
		defer store.Close()
		cfg.Store = store
	}

	rec := obsFlags.Recorder()
	if rec != nil {
		cfg.Obs = rec
		cfg.ObsRun = runs[0].Index // flight-record the first filtered run
	}
	if !*quiet {
		// The ticker counts this process's slice of the filtered runs.
		total := len(runs)
		if rs := campaign.Ranges(len(runs), parts); part < len(rs) {
			total = rs[part].Len()
		}
		done := 0
		cfg.OnResult = func(campaign.RunResult) {
			done++
			if done == total || done%50 == 0 {
				fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
			}
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	eng, err := campaign.NewEngine(cfg)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	results, err := eng.ExecuteSpec(spec)
	wall := time.Since(start)
	if err != nil {
		fail(err)
	}

	// A range that excludes the flight-recorded run leaves the recorder
	// empty; only write artifacts when this process executed that run, and
	// suffix their paths with the range so concurrent parts stay apart.
	if rec != nil && rangeContains(results, cfg.ObsRun) {
		pathFn := func(p string) string { return p }
		if cfg.RangeParts > 1 && len(results) > 0 {
			lo := results[0].Index
			hi := results[len(results)-1].Index + 1
			pathFn = func(p string) string { return obs.RangePath(p, lo, hi) }
		}
		if err := obsFlags.WriteArtifacts(rec, pathFn); err != nil {
			fail(err)
		}
	}

	if !*quiet {
		campaign.RenderSummary(os.Stdout, spec.Name, results, campaign.Summarize(results))
		w := cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		st := eng.Stats()
		fmt.Printf("  wall time: %.2fs with %d workers (%.0f runs/s)\n",
			wall.Seconds(), w, float64(len(results))/wall.Seconds())
		if st.CacheHits > 0 || st.CheckpointHits > 0 {
			fmt.Printf("  served: %d simulated, %d cache hits, %d checkpoint hits\n",
				st.Simulated, st.CacheHits, st.CheckpointHits)
		}
		if store != nil {
			cs := store.Stats()
			fmt.Printf("  cache: %d entries, %d hits / %d misses this invocation\n",
				cs.Entries, cs.Hits, cs.Misses)
		}
	}
}

// parseRange parses the -range I/N syntax; empty means the whole list.
func parseRange(s string) (part, parts int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	i, n, ok := strings.Cut(s, "/")
	if ok {
		if part, err = strconv.Atoi(i); err == nil {
			parts, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("campaign: -range wants I/N (e.g. 0/4), got %q", s)
	}
	if parts < 1 || part < 0 || part >= parts {
		return 0, 0, fmt.Errorf("campaign: -range %q out of bounds", s)
	}
	return part, parts, nil
}

// rangeContains reports whether the executed slice includes the run index.
func rangeContains(results []campaign.RunResult, index int) bool {
	for i := range results {
		if results[i].Index == index {
			return true
		}
	}
	return false
}

func fail(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "campaign:") {
		msg = "campaign: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
