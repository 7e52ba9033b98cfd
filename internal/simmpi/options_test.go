package simmpi

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simnet"
)

func optTopo(ranks int) *simnet.Topology {
	m := machine.XT4()
	return simnet.NewTopology(m.Params, ranks, simnet.LinearPlacement(m))
}

// TestOptionsRejectNegativeShards: a negative shard count fails at
// configuration time, at both construction and reset.
func TestOptionsRejectNegativeShards(t *testing.T) {
	bad := Options{Shards: -1}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "negative shard count") {
		t.Fatalf("Validate() = %v, want the negative shard count", err)
	}
	if _, err := NewWithOptions(optTopo(4), bad); err == nil {
		t.Error("NewWithOptions accepted -1 shards")
	}
	sim := New(optTopo(4))
	if err := sim.ResetWithOptions(optTopo(4), bad); err == nil {
		t.Error("ResetWithOptions accepted -1 shards")
	}
	for _, ok := range []Options{
		{},
		{Shards: 1},
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

// TestResetWithOptionsReplacesOptions: the Sim carries exactly the options
// it was given, and ResetWithOptions replaces the whole set.
func TestResetWithOptionsReplacesOptions(t *testing.T) {
	rec := &obs.Recorder{Hist: true}
	sim, err := NewWithOptions(optTopo(4), Options{Obs: rec, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sim.obs != rec || sim.nshards != 4 {
		t.Errorf("NewWithOptions: obs=%p shards=%d, want %p and 4", sim.obs, sim.nshards, rec)
	}
	// The zero Options returns the Sim to a serial, un-instrumented run.
	if err := sim.ResetWithOptions(optTopo(4), Options{}); err != nil {
		t.Fatal(err)
	}
	if sim.obs != nil || sim.nshards != 1 {
		t.Errorf("after ResetWithOptions(zero): obs=%p shards=%d, want clean serial", sim.obs, sim.nshards)
	}
}
