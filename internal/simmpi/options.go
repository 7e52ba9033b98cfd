package simmpi

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Options bundles every per-run configuration knob of a Sim — the flight
// recorder and the conservative-parallel shard count — so a simulation is
// configured in one place, at construction or reset, and an invalid value
// fails there instead of at Run.
//
// The zero Options is the default serial, un-instrumented simulation.
type Options struct {
	// Obs attaches a flight recorder (internal/obs). The recorder is
	// shard-safe: sharded runs record per-rank spans from the owning
	// shards and merge histogram scratch single-threaded, so the recording
	// is deterministic for every shard count. Set its feature flags before
	// Run.
	Obs *obs.Recorder
	// Shards requests conservative parallel execution over that many
	// shards; 0 or 1 is the serial engine. The effective count, reported
	// by ParallelStats, is capped by the node count and falls back to 1
	// when the topology offers no lookahead or the rank placement cannot
	// complete all-reduces safely inside a window. A run requested with
	// Shards > 1 uses the canonical same-time event order even then, so
	// every sharded count (≥ 2) yields bit-identical results (see
	// parallel.go).
	Shards int
}

// Validate rejects option values that cannot execute as requested. It is
// the single checkpoint the construction and reset paths share.
func (o Options) Validate() error {
	if o.Shards < 0 {
		return fmt.Errorf("simmpi: negative shard count %d", o.Shards)
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
	s.obs = o.Obs
	k := o.Shards
	if k < 1 {
		k = 1
	}
	s.nshards = k
}

// NewWithOptions creates a simulation over the given topology with the
// options applied atomically; invalid values are rejected here rather
// than at Run. Programs are assigned with SetProgram.
func NewWithOptions(topo *simnet.Topology, o Options) (*Sim, error) {
	if err := o.validateFor(topo); err != nil {
		return nil, err
	}
	s := New(topo)
	s.apply(o)
	return s, nil
}

// ResetWithOptions prepares the Sim for another run over a (possibly
// different) topology with the option set o, retaining the capacity of
// every internal pool — the event heap, the message and receive-request
// free lists, the channel slice, the per-rank tables and every shard built
// for earlier parallel runs — so that back-to-back simulations of similar
// size perform near-zero heap allocations after the first. All programs
// are cleared, and the Sim's configuration afterwards is exactly o: a
// reset Sim behaves bit-identically to NewWithOptions(topo, o). The
// topology must be fresh, so its buses and links start a new virtual time
// axis. An invalid o leaves the Sim unchanged.
func (s *Sim) ResetWithOptions(topo *simnet.Topology, o Options) error {
	if err := o.validateFor(topo); err != nil {
		return err
	}
	s.apply(o)
	s.topo = topo
	n := topo.Ranks()
	if n <= cap(s.ranks) {
		s.ranks = s.ranks[:n]
	} else {
		old := s.ranks
		s.ranks = make([]rankState, n)
		copy(s.ranks, old) // carry over the allocated out tables
	}
	for i := range s.ranks {
		out := s.ranks[i].out
		s.ranks[i] = rankState{id: int32(i), out: out[:0], collIx: none}
	}
	// A collective side table, once allocated, covers every rank, and its
	// buffers are kept for the next expansions.
	if s.coll != nil && len(s.coll) < n {
		s.coll = append(s.coll, make([][]Op, n-len(s.coll))...)
	}
	// Truncating (not clearing) keeps backing arrays; claimChannel appends
	// into the channel slice's old array, and AllocSlot repopulates the
	// pools in the same order a fresh Sim would. Run resizes and empties
	// the spans side table itself.
	s.arGens = s.arGens[:0]
	for _, sh := range s.shards {
		sh.clear()
		sh.bind()
	}
	return nil
}
