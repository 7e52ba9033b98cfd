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
//	campaign -builtin flagship           # the 360-run design-space sweep
//	campaign -spec sweep.json -list      # show the expanded runs, don't execute
//	campaign -print-spec example         # print a built-in spec as JSON
//
// The JSONL output contains only deterministic fields: the same spec
// produces byte-identical files for any -workers value. Filters restrict
// the sweep, e.g. -filter "app=LU,p=64|256,override=baseline".
//
// The command selects the runs: it expands the spec, applies -filter and
// -range, and hands the engine that one list to execute, merge or -list.
//
//	-cache-dir DIR   memoize results by content address in the store
//	                 directory DIR (one cache*.jsonl file per writer);
//	                 runs found there are served byte-identical to cold
//	                 execution, so a killed campaign rerun resumes
//	-range I/N       execute only slice I of N of the filtered run list
//	                 (deterministic partitioning for multi-process sweeps)
//	-merge           write the full -out JSONL from -cache-dir without
//	                 simulating (byte-identical to a single-process run);
//	                 give it the parts' -hist and -shards
//
// Observability: -hist attaches duration histograms to every run (a
// "hists" field per JSONL row), while -chrome-trace and -sample-every
// flight-record the first filtered run into a Chrome trace-event timeline
// and a time-series CSV. All three outputs are byte-identical for any
// -workers or -shards value. Of a ranged campaign only part 0 holds that
// run, so only part 0 records, at the paths given; other parts write no
// trace artifacts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/obs"
	"repro/internal/prof"
)

// campaignFlags is the command's flag surface; registration is separated
// from run so tests can pin the inventory.
type campaignFlags struct {
	spec, builtin, printSpec *string
	list                     *bool
	filter                   *string
	workers, shards          *int
	out, rangeSpec           *string
	merge                    *bool
	cacheDir                 *string
	obs                      *cliflags.ObsFlags
	quiet                    *bool
	prof                     *prof.Flags
}

func registerFlags(fs *flag.FlagSet) campaignFlags {
	return campaignFlags{
		spec:      fs.String("spec", "", "campaign spec file (JSON)"),
		builtin:   fs.String("builtin", "", "run a built-in campaign: "+strings.Join(campaign.BuiltinNames(), ", ")),
		printSpec: fs.String("print-spec", "", "print a built-in campaign spec as JSON and exit"),
		list:      fs.Bool("list", false, "list the expanded runs without executing"),
		filter:    fs.String("filter", "", "restrict runs, e.g. \"app=LU,p=64|256,override=baseline\""),
		workers:   cliflags.RegisterWorkers(fs),
		shards:    cliflags.RegisterShards(fs, 0),
		out:       fs.String("out", "", "write per-run results as JSONL to this file"),
		rangeSpec: fs.String("range", "", "execute slice I of N of the run list, e.g. 0/4"),
		merge:     fs.Bool("merge", false, "write -out from the -cache-dir store without simulating, and exit (give it the parts' -hist and -shards)"),
		cacheDir:  fs.String("cache-dir", "", "content-addressed result store directory; finished runs are hits, so a rerun resumes"),
		obs:       cliflags.RegisterObs(fs),
		quiet:     fs.Bool("quiet", false, "suppress the progress ticker and summary tables"),
		prof:      prof.Register(fs),
	}
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		msg := err.Error()
		if !strings.HasPrefix(msg, "campaign:") {
			msg = "campaign: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

// run is the command body. It returns rather than exiting, so the
// deferred profile flush and store close run on every path, and the
// store's first failed append fails the command.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	f := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := f.prof.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	if *f.printSpec != "" {
		spec, ok := campaign.Builtin(*f.printSpec)
		if !ok {
			return fmt.Errorf("unknown built-in campaign %q (want %s)", *f.printSpec, strings.Join(campaign.BuiltinNames(), ", "))
		}
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}

	var spec campaign.Spec
	switch {
	case *f.spec != "" && *f.builtin != "":
		return fmt.Errorf("use -spec or -builtin, not both")
	case *f.spec != "":
		if spec, err = campaign.LoadSpec(*f.spec); err != nil {
			return err
		}
	case *f.builtin != "":
		s, ok := campaign.Builtin(*f.builtin)
		if !ok {
			return fmt.Errorf("unknown built-in campaign %q (want %s)", *f.builtin, strings.Join(campaign.BuiltinNames(), ", "))
		}
		spec = s
	default:
		fs.Usage()
		return flag.ErrHelp
	}

	// The one run selection: the filtered expansion feeds -list and
	// -merge, and its -range slice is what this process executes.
	runs, err := spec.Expand()
	if err != nil {
		return err
	}
	if *f.filter != "" {
		flt, err := campaign.ParseFilter(*f.filter)
		if err != nil {
			return err
		}
		runs = flt.Apply(runs)
	}
	if len(runs) == 0 {
		return fmt.Errorf("campaign %q has no runs after filtering", spec.Name)
	}

	if *f.list {
		for _, r := range runs {
			fmt.Fprintf(stdout, "%4d  %s\n", r.Index, r.Key())
		}
		fmt.Fprintf(stdout, "%d runs\n", len(runs))
		return nil
	}

	part, parts, err := parseRange(*f.rangeSpec)
	if err != nil {
		return err
	}
	if *f.merge && (*f.cacheDir == "" || *f.out == "") {
		return fmt.Errorf("-merge needs -cache-dir and -out")
	}
	cfg := campaign.Config{Workers: *f.workers, Shards: *f.shards, Hist: f.obs.Hist}

	if !*f.merge {
		// Part I of N; a part past the run count executes nothing and
		// writes no -out file or store file.
		rs := campaign.Ranges(len(runs), parts)
		if part < len(rs) {
			runs = runs[rs[part].Lo:rs[part].Hi]
		} else {
			runs = nil
		}
	}

	var store *campaign.DiskStore
	if *f.cacheDir != "" && len(runs) > 0 {
		store, err = campaign.OpenDiskStore(*f.cacheDir, campaign.StoreFile(part, parts))
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, store.Close()) }()
		cfg.Store = store
	}

	// Create -out before anything executes or merges: an unwritable path
	// must fail here, not after minutes of sweeping.
	var out *os.File
	if *f.out != "" && len(runs) > 0 {
		if err := obs.EnsureParent(*f.out); err != nil {
			return fmt.Errorf("creating output directory: %w", err)
		}
		if out, err = os.Create(*f.out); err != nil {
			return fmt.Errorf("opening output: %w", err)
		}
		defer func() { err = errors.Join(err, out.Close()) }()
	}

	// Only a selection that starts with the campaign's first run holds the
	// flight-recorded run.
	if part == 0 {
		cfg.Obs = f.obs.Recorder()
	}
	if !*f.quiet {
		done := 0
		cfg.OnResult = func(campaign.RunResult) {
			done++
			if done == len(runs) || done%50 == 0 {
				fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, len(runs))
			}
			if done == len(runs) {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	eng, err := campaign.NewEngine(cfg)
	if err != nil {
		return err
	}

	if *f.merge {
		if err := eng.Merge(runs, out); err != nil {
			return fmt.Errorf("%w; -merge must be given the parts' -hist and -shards, which are part of every run key", err)
		}
		if !*f.quiet {
			fmt.Fprintf(stdout, "merged %d runs from %s into %s\n", len(runs), *f.cacheDir, *f.out)
		}
		return nil
	}

	start := time.Now()
	results, err := eng.Execute(runs)
	wall := time.Since(start)
	if out != nil {
		// Written even when a run failed: the completed rows survive.
		err = errors.Join(err, campaign.WriteJSONL(out, results))
	}
	if err != nil {
		return err
	}
	if err := f.obs.WriteArtifacts(cfg.Obs); err != nil {
		return err
	}

	if !*f.quiet {
		campaign.RenderSummary(stdout, spec.Name, results, campaign.Summarize(results))
		w := cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		st := eng.Stats()
		fmt.Fprintf(stdout, "  wall time: %.2fs with %d workers (%.0f runs/s)\n",
			wall.Seconds(), w, float64(len(results))/wall.Seconds())
		if st.CacheHits > 0 {
			fmt.Fprintf(stdout, "  served: %d simulated, %d cache hits\n", st.Simulated, st.CacheHits)
		}
		if store != nil {
			cs := store.Stats()
			fmt.Fprintf(stdout, "  cache: %d entries, %d hits / %d misses this invocation\n",
				cs.Entries, cs.Hits, cs.Misses)
		}
	}
	return nil
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
