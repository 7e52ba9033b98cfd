package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

// TestRecorderCollectsSpans profiles spans collected by a flight recorder.
func TestRecorderCollectsSpans(t *testing.T) {
	var r obs.Recorder
	r.PrepareRanks(3)
	r.RankSpan(0, obs.SpanCompute, -1, 0, 0, 5)
	r.RankSpan(1, obs.SpanRecv, 0, 128, 0, 9)
	r.RankSpan(0, obs.SpanSend, 1, 128, 5, 9)
	r.RankSpan(1, obs.SpanAllReduce, -1, 0, 9, 10)
	r.RankSpan(2, obs.SpanCompute, -1, 0, 0, 1) // beyond the profiled ranks
	ps := Profile(r.SpanList(), 2)
	if len(ps) != 2 {
		t.Fatalf("len = %d", len(ps))
	}
	if ps[0].Compute != 5 || ps[0].Send != 4 || ps[0].Finish != 9 {
		t.Errorf("profile[0] = %+v", ps[0])
	}
	if ps[1].Recv != 9 || ps[1].Coll != 1 || ps[1].Comm() != 10 || ps[1].Finish != 10 {
		t.Errorf("profile[1] = %+v", ps[1])
	}
	if share := ps[1].CommShare(); share != 1 {
		t.Errorf("comm share = %v", share)
	}
	if (RankProfile{}).CommShare() != 0 {
		t.Error("empty profile has a comm share")
	}
}

func TestSummaryAndTopCommBound(t *testing.T) {
	ps := []RankProfile{
		{Rank: 0, Compute: 9, Send: 1, Finish: 10},
		{Rank: 1, Compute: 2, Recv: 10, Finish: 12},
		{Rank: 2, Compute: 5, Coll: 5, Finish: 10},
	}
	s := Summarize(ps)
	if s.Ranks != 3 || s.MakeSpan != 12 || s.CriticalRank != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.BoundRank != 1 {
		t.Errorf("bound rank = %d", s.BoundRank)
	}
	if math.Abs(s.TotalComm-16) > 1e-12 || math.Abs(s.TotalCompute-16) > 1e-12 {
		t.Errorf("totals = %v/%v", s.TotalCompute, s.TotalComm)
	}
	top := TopCommBound(ps, 2)
	if len(top) != 2 || top[0].Rank != 1 {
		t.Errorf("top = %+v", top)
	}
	if got := TopCommBound(ps, 10); len(got) != 3 {
		t.Errorf("over-sized k returned %d", len(got))
	}
}

// runTraced runs a small Sweep3D iteration with a span recorder attached.
func runTraced(t *testing.T) ([]obs.Span, simmpi.Result, int) {
	t.Helper()
	g := grid.Cube(16)
	bm := apps.Sweep3D(g, 2)
	dec := grid.MustDecompose(g, 4, 4)
	mach := machine.XT4()
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	rec := &obs.Recorder{Spans: true}
	sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rec.SpanList(), res, dec.P()
}

func TestTracedSimulationConsistency(t *testing.T) {
	spans, res, ranks := runTraced(t)
	ps := Profile(spans, ranks)
	for r := 0; r < ranks; r++ {
		// Traced compute equals the simulator's own accounting.
		if math.Abs(ps[r].Compute-res.ComputeTime[r]) > 1e-9 {
			t.Errorf("rank %d: traced compute %v vs accounted %v",
				r, ps[r].Compute, res.ComputeTime[r])
		}
		// Spans tile the rank's lifetime: compute + comm = finish.
		if idle := ps[r].Finish - ps[r].Compute - ps[r].Comm(); math.Abs(idle) > 1e-6*(1+ps[r].Finish) {
			t.Errorf("rank %d: idle gap %v", r, idle)
		}
		if math.Abs(ps[r].Finish-res.RankFinish[r]) > 1e-9 {
			t.Errorf("rank %d: finish %v vs %v", r, ps[r].Finish, res.RankFinish[r])
		}
	}
	sum := Summarize(ps)
	if math.Abs(sum.MakeSpan-res.Time) > 1e-9 {
		t.Errorf("makespan %v vs %v", sum.MakeSpan, res.Time)
	}
	// The sweep origin corner ranks wait the least; interior ranks have
	// non-trivial comm share.
	if sum.MeanCommShare <= 0 || sum.MeanCommShare >= 1 {
		t.Errorf("mean comm share = %v", sum.MeanCommShare)
	}
}

func TestSpansNonOverlappingPerRank(t *testing.T) {
	spans, _, ranks := runTraced(t)
	last := make([]float64, ranks)
	for _, s := range spans {
		if s.Start < last[s.Rank]-1e-9 {
			t.Fatalf("rank %d: span starts at %v before previous end %v", s.Rank, s.Start, last[s.Rank])
		}
		if s.End < s.Start {
			t.Fatalf("negative span %+v", s)
		}
		last[s.Rank] = s.End
	}
}

func TestGanttRendering(t *testing.T) {
	spans, _, ranks := runTraced(t)
	var buf bytes.Buffer
	Gantt(&buf, spans, ranks, 60)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != ranks+1 {
		t.Fatalf("gantt lines = %d, want %d+axis", len(lines), ranks)
	}
	if !strings.ContainsAny(out, "csra") {
		t.Error("gantt contains no activity glyphs")
	}
	// No spans render a placeholder.
	var empty bytes.Buffer
	Gantt(&empty, nil, 2, 10)
	if !strings.Contains(empty.String(), "no spans") {
		t.Errorf("empty gantt = %q", empty.String())
	}
}
