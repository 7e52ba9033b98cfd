package simmpi

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simnet"
)

type nopTracer struct{}

func (nopTracer) Span(rank int, op OpKind, peer, bytes int, start, end float64) {}

func optTopo(ranks int) *simnet.Topology {
	m := machine.XT4()
	return simnet.NewTopology(m.Params, ranks, simnet.LinearPlacement(m))
}

// TestOptionsRejectTracerWithShards is the consolidation contract: the
// invalid tracer+shards combination fails at configuration time, at both
// construction and Reset, instead of silently degrading at Run.
func TestOptionsRejectTracerWithShards(t *testing.T) {
	bad := Options{Tracer: nopTracer{}, Shards: 4}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "serial") {
		t.Fatalf("Validate() = %v, want tracer/shards conflict", err)
	}
	if _, err := NewWithOptions(optTopo(4), bad); err == nil {
		t.Error("NewWithOptions accepted a tracer with 4 shards")
	}
	sim := New(optTopo(4))
	if err := sim.ResetWithOptions(optTopo(4), bad); err == nil {
		t.Error("ResetWithOptions accepted a tracer with 4 shards")
	}
	if err := (Options{Shards: -1}).Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
	// Each half of the conflict is fine on its own, as is a shard-safe
	// recorder next to shards.
	for _, ok := range []Options{
		{Tracer: nopTracer{}},
		{Tracer: nopTracer{}, Shards: 1},
		{Shards: 8},
		{Obs: &obs.Recorder{Hist: true}, Shards: 8},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", ok, err)
		}
	}
}

// TestOptionsRejectShardsAboveRankLimit pins the explicit rank limit of a
// sharded run: evPri keeps 18 bits per rank, so construction and Reset
// refuse more than 2^18 ranks at Shards > 1 instead of silently weakening
// shard-count invariance.
func TestOptionsRejectShardsAboveRankLimit(t *testing.T) {
	at, over := optTopo(maxShardedRanks), optTopo(maxShardedRanks+1)
	if _, err := NewWithOptions(over, Options{Shards: 2}); err == nil || !strings.Contains(err.Error(), "262144-rank limit") {
		t.Fatalf("NewWithOptions(%d ranks, 2 shards) = %v, want the rank limit", over.Ranks(), err)
	}
	sim := New(optTopo(4))
	if err := sim.ResetWithOptions(over, Options{Shards: 2}); err == nil {
		t.Fatalf("ResetWithOptions accepted %d ranks at 2 shards", over.Ranks())
	}
	if len(sim.ranks) != 4 {
		t.Fatalf("a rejected ResetWithOptions rebound the Sim to %d ranks", len(sim.ranks))
	}
	// The limit binds only sharded runs, and it is inclusive.
	for _, ok := range []struct {
		topo *simnet.Topology
		o    Options
	}{
		{at, Options{Shards: 2}},
		{at, Options{Shards: 8}},
		{over, Options{}},
		{over, Options{Shards: 1}},
	} {
		if err := ok.o.validateFor(ok.topo); err != nil {
			t.Errorf("%d ranks, %d shards: %v", ok.topo.Ranks(), ok.o.Shards, err)
		}
	}
}

// TestOptionsMatchSetters pins the wrapper equivalence: a Sim configured
// through Options carries exactly the state the deprecated setter trio
// would have installed, and ResetWithOptions replaces the whole set.
func TestOptionsMatchSetters(t *testing.T) {
	rec := &obs.Recorder{Hist: true}
	sim, err := NewWithOptions(optTopo(4), Options{Obs: rec, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	old := New(optTopo(4))
	old.SetObs(rec)
	old.SetShards(4)
	if sim.obs != old.obs || sim.nshards != old.nshards || sim.Shards() != 4 {
		t.Errorf("options state (obs=%p shards=%d) != setter state (obs=%p shards=%d)",
			sim.obs, sim.nshards, old.obs, old.nshards)
	}
	// ResetWithOptions applies the full set: the zero Options returns the
	// Sim to a serial, un-instrumented run (legacy Reset would have kept
	// the shard count).
	if err := sim.ResetWithOptions(optTopo(4), Options{}); err != nil {
		t.Fatal(err)
	}
	if sim.obs != nil || sim.tracer != nil || sim.Shards() != 1 {
		t.Errorf("after ResetWithOptions(zero): obs=%p tracer=%v shards=%d, want clean serial",
			sim.obs, sim.tracer, sim.Shards())
	}
}
