// Package cliflags is the shared flag surface of the simulator commands.
// The observability knobs (-hist, -chrome-trace, -sample-every,
// -sample-out, -trace-windows), the execution knobs (-workers, -shards)
// and the artifact writer used to emit trace and sample files had grown
// near-identical copies in cmd/campaign, cmd/sweepsim and cmd/campaignd;
// this package keeps one definition of each so every command spells the
// same flag the same way with the same help text. The profiling flags
// already have a shared home in internal/prof — register them alongside
// these with prof.Register.
package cliflags

import (
	"flag"
	"os"

	"repro/internal/obs"
)

// ObsFlags are the observability flags shared by the simulator commands.
type ObsFlags struct {
	// Hist attaches duration-histogram percentiles to results.
	Hist bool
	// ChromeTrace, if non-empty, is the Chrome trace-event timeline path.
	ChromeTrace string
	// SampleEvery, if positive, samples time-series metrics every Δt µs.
	SampleEvery float64
	// SampleOut is the CSV path -sample-every writes to.
	SampleOut string
	// TraceWindows includes per-shard lookahead-window tracks in the
	// timeline (these depend on the shard count).
	TraceWindows bool
}

// histUsage is the one help text of -hist, shared by RegisterObs and
// RegisterHist so every command documents the flag identically.
const histUsage = "attach duration-histogram percentiles (recv wait, message latency, link delay)"

// RegisterHist declares the standalone -hist flag on fs — for commands
// (campaignd) that collect histograms without the rest of the
// observability surface.
func RegisterHist(fs *flag.FlagSet) *bool {
	return fs.Bool("hist", false, histUsage)
}

// RegisterObs declares the shared observability flags on fs.
func RegisterObs(fs *flag.FlagSet) *ObsFlags {
	var o ObsFlags
	fs.BoolVar(&o.Hist, "hist", false, histUsage)
	fs.StringVar(&o.ChromeTrace, "chrome-trace", "", "write a Chrome trace-event timeline (load in Perfetto) to this file")
	fs.Float64Var(&o.SampleEvery, "sample-every", 0, "sample time-series metrics every Δt µs into -sample-out")
	fs.StringVar(&o.SampleOut, "sample-out", "samples.csv", "time-series CSV path for -sample-every")
	fs.BoolVar(&o.TraceWindows, "trace-windows", false, "include per-shard lookahead-window tracks in -chrome-trace (these depend on -shards)")
	return &o
}

// Recording reports whether a flight recorder is needed: a timeline or
// time-series output was requested.
func (o *ObsFlags) Recording() bool {
	return o.ChromeTrace != "" || o.SampleEvery > 0
}

// Recorder builds the flight recorder the flags call for, or nil when no
// recording was requested. Histograms are not enabled here — campaign-style
// commands give every run its own histogram recorder instead.
func (o *ObsFlags) Recorder() *obs.Recorder {
	if !o.Recording() {
		return nil
	}
	return &obs.Recorder{Spans: true, Messages: true, Links: true, Windows: o.TraceWindows}
}

// WriteArtifacts writes the timeline and sample artifacts the flags
// requested from rec; a nil rec writes nothing.
func (o *ObsFlags) WriteArtifacts(rec *obs.Recorder) error {
	if rec == nil {
		return nil
	}
	if o.ChromeTrace != "" {
		if err := WriteArtifact(o.ChromeTrace, func(f *os.File) error {
			return obs.WriteTimeline(f, rec)
		}); err != nil {
			return err
		}
	}
	if o.SampleEvery > 0 {
		if err := WriteArtifact(o.SampleOut, func(f *os.File) error {
			return obs.WriteSamples(f, rec, o.SampleEvery)
		}); err != nil {
			return err
		}
	}
	return nil
}

// RegisterWorkers declares the shared -workers flag on fs.
func RegisterWorkers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker pool size (default: GOMAXPROCS)")
}

// RegisterShards declares the shared -shards flag on fs. def is the
// default shard count: campaign-style commands use 0 ("inherit from the
// spec"), single-run commands use 1 (serial).
func RegisterShards(fs *flag.FlagSet, def int) *int {
	return fs.Int("shards", def, "conservative-parallel shard count (results are bit-identical for every sharded count)")
}

// WriteArtifact creates path (parents included) and streams one artifact
// into it.
func WriteArtifact(path string, write func(*os.File) error) error {
	if err := obs.EnsureParent(path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
