package simmpi

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Options bundles every per-run configuration knob of a Sim — the span
// tracer, the flight recorder and the conservative-parallel shard count —
// so a simulation is configured in one place, at construction or Reset,
// instead of through a sequence of setters whose invalid combinations
// could only surface at Run time.
//
// The zero Options is the default serial, un-instrumented simulation.
type Options struct {
	// Tracer receives per-rank activity spans (internal/trace). A traced
	// simulation executes serially: span callbacks are not synchronised
	// across shard goroutines, so Tracer and Shards > 1 conflict.
	Tracer Tracer
	// Obs attaches a flight recorder (internal/obs). Unlike Tracer, a
	// recorder is shard-safe: sharded runs record per-rank spans from the
	// owning shards and merge histogram scratch single-threaded, so the
	// recording is deterministic for every shard count.
	Obs *obs.Recorder
	// Shards requests conservative parallel execution over that many
	// shards; 0 or 1 is the serial engine. Every sharded count (≥ 2)
	// yields bit-identical results (see parallel.go).
	Shards int
}

// Validate rejects option combinations that cannot execute as requested.
// It is the single checkpoint the construction and Reset paths share, so
// a conflict fails loudly up front instead of degrading silently at Run.
func (o Options) Validate() error {
	if o.Shards < 0 {
		return fmt.Errorf("simmpi: negative shard count %d", o.Shards)
	}
	if o.Tracer != nil && o.Shards > 1 {
		return fmt.Errorf("simmpi: a span tracer forces serial execution — drop the tracer or use Shards ≤ 1 (use a shard-safe obs.Recorder for parallel runs)")
	}
	return nil
}

// maxShardedRanks is the largest rank count a sharded run accepts. The
// canonical same-time event order (evPri) keeps 18 bits of each rank, so
// above it two distinct rank pairs could tie and results could differ
// between shard counts.
const maxShardedRanks = 1 << 18

// validateFor is Validate plus the checks that need the topology.
func (o Options) validateFor(topo *simnet.Topology) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if n := topo.Ranks(); o.Shards > 1 && n > maxShardedRanks {
		return fmt.Errorf("simmpi: %d ranks exceed the %d-rank limit of a sharded run, whose same-time event order keeps 18 bits per rank; use Shards ≤ 1", n, maxShardedRanks)
	}
	return nil
}

// apply installs validated options on the Sim.
func (s *Sim) apply(o Options) {
	s.tracer = o.Tracer
	s.obs = o.Obs
	k := o.Shards
	if k < 1 {
		k = 1
	}
	s.nshards = k
}

// NewWithOptions creates a simulation over the given topology with the
// options applied atomically; invalid combinations are rejected here
// rather than at Run. Programs are assigned with SetProgram.
func NewWithOptions(topo *simnet.Topology, o Options) (*Sim, error) {
	if err := o.validateFor(topo); err != nil {
		return nil, err
	}
	s := New(topo)
	s.apply(o)
	return s, nil
}

// ResetWithOptions rebinds the Sim to a (possibly different) topology for
// another run — retaining every internal pool exactly like Reset — and
// applies the full option set in the same step. Unlike the legacy
// setter-based flow (Reset clears the tracer and recorder but keeps the
// shard count), the Sim's configuration afterwards is exactly o: what you
// pass is what runs.
func (s *Sim) ResetWithOptions(topo *simnet.Topology, o Options) error {
	if err := o.validateFor(topo); err != nil {
		return err
	}
	s.Reset(topo)
	s.apply(o)
	return nil
}
