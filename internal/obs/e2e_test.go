package obs_test

// End-to-end flight-recorder tests: a Recorder attached to real simulations
// must (a) mirror the simulator's operation kinds, (b) produce byte-identical
// timeline/sampler/histogram artifacts for every shard count, pinned against
// a golden file, (c) emit schema-valid Chrome trace JSON, and (d) surface
// histograms on simmpi.Result without perturbing the simulation.
//
// To bless an intentional artifact change:
//
//	go test ./internal/obs -run TestFlightRecorderGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/topo"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runFlight simulates one Sweep3D iteration on an edge³ grid over an n×m
// decomposition of the dual-core XT4 with a 2D-torus interconnect, with rec
// attached (rec may be nil).
func runFlight(t *testing.T, edge, n, m, shards int, rec *obs.Recorder) simmpi.Result {
	t.Helper()
	g := grid.Cube(edge)
	bm := apps.Sweep3D(g, 2)
	dec := grid.MustDecompose(g, n, m)
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.XT4()
	tp := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	if err := tp.AttachInterconnect(topo.Spec{Kind: topo.Torus2D}); err != nil {
		t.Fatal(err)
	}
	sim, err := simmpi.NewWithOptions(tp, simmpi.Options{Shards: shards, Obs: rec})
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
	return res
}

// shardInvariantArtifact renders the three shard-invariant artifacts —
// timeline, sampled CSV and histogram summaries — as one blob. WindowStall
// is deliberately absent: it measures the sharded scheduler itself and
// varies with the shard count (see the SimHists doc).
func shardInvariantArtifact(t *testing.T, rec *obs.Recorder, every float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTimeline(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSamples(&buf, rec, every); err != nil {
		t.Fatal(err)
	}
	h := rec.Hists()
	fmt.Fprintf(&buf, "recv_wait %s\nmsg_latency %s\nlink_delay %s\n",
		h.RecvWait.Summary(), h.MsgLatency.Summary(), h.LinkDelay.Summary())
	return buf.Bytes()
}

// TestSpanKindParity: obs mirrors simmpi's operation kinds by value (obs is
// a leaf package and cannot import simmpi to share the constants).
func TestSpanKindParity(t *testing.T) {
	pairs := []struct {
		obs  uint8
		sim  simmpi.OpKind
		name string
	}{
		{obs.SpanCompute, simmpi.OpCompute, "compute"},
		{obs.SpanSend, simmpi.OpSend, "send"},
		{obs.SpanRecv, simmpi.OpRecv, "recv"},
		{obs.SpanAllReduce, simmpi.OpAllReduce, "allreduce"},
		{obs.SpanBcast, simmpi.OpBcast, "bcast"},
		{obs.SpanBarrier, simmpi.OpBarrier, "barrier"},
	}
	for _, p := range pairs {
		if p.obs != uint8(p.sim) {
			t.Errorf("%s: obs kind %d != simmpi kind %d", p.name, p.obs, p.sim)
		}
	}
}

// TestFlightRecorderGolden pins the full artifact blob of a small run
// byte-for-byte, and requires the identical blob from every shard count.
func TestFlightRecorderGolden(t *testing.T) {
	const path = "testdata/flight_golden.txt"
	var blobs [][]byte
	for _, shards := range []int{1, 2, 4} {
		rec := &obs.Recorder{Spans: true, Messages: true, Links: true, Hist: true}
		runFlight(t, 8, 2, 2, shards, rec)
		blobs = append(blobs, shardInvariantArtifact(t, rec, 25))
	}
	for i, blob := range blobs[1:] {
		if !bytes.Equal(blobs[0], blob) {
			t.Fatalf("artifacts diverge between 1 shard and %d shards", []int{2, 4}[i])
		}
	}
	if *update {
		if err := os.WriteFile(path, blobs[0], 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(blobs[0], want) {
		t.Fatalf("artifact drifted from golden (%d vs %d bytes); run with -update and explain the drift",
			len(blobs[0]), len(want))
	}
}

// TestFlightRecorderShardInvariantLarge repeats the invariance check on a
// contended 64-rank run (no golden: only cross-shard equality).
func TestFlightRecorderShardInvariantLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large invariance sweep")
	}
	var base []byte
	for _, shards := range []int{1, 2, 4, 8} {
		rec := &obs.Recorder{Spans: true, Messages: true, Links: true, Hist: true}
		runFlight(t, 32, 8, 8, shards, rec)
		blob := shardInvariantArtifact(t, rec, 200)
		if base == nil {
			base = blob
		} else if !bytes.Equal(base, blob) {
			t.Fatalf("artifacts diverge at %d shards", shards)
		}
	}
}

// TestTimelineSchemaFromSimulation: the rendered trace of a real run loads
// as trace-event JSON with complete events for every rank.
func TestTimelineSchemaFromSimulation(t *testing.T) {
	rec := &obs.Recorder{Spans: true, Messages: true, Links: true}
	res := runFlight(t, 16, 4, 4, 1, rec)

	var buf bytes.Buffer
	if err := obs.WriteTimeline(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	ranksSeen := map[int]bool{}
	var maxEnd float64
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
		case "X":
			if ev.Name == "" || ev.Ts == nil || ev.Dur == nil || ev.Pid == nil || ev.Tid == nil {
				t.Fatalf("event %d incomplete: %+v", i, ev)
			}
			if *ev.Pid == 1 {
				ranksSeen[*ev.Tid] = true
				if end := *ev.Ts + *ev.Dur; end > maxEnd {
					maxEnd = end
				}
			}
		default:
			t.Fatalf("event %d: phase %q", i, ev.Ph)
		}
	}
	if len(ranksSeen) != 16 {
		t.Errorf("rank tracks = %d, want 16", len(ranksSeen))
	}
	// The last rank span ends at the simulated makespan.
	if diff := maxEnd - res.Time; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("last span ends at %v, makespan %v", maxEnd, res.Time)
	}
}

// TestShardWindowTracks: a sharded run with Windows on yields one shard
// track per shard in the timeline (pid 3), with window/stall events.
func TestShardWindowTracks(t *testing.T) {
	rec := &obs.Recorder{Windows: true}
	runFlight(t, 16, 4, 4, 4, rec)
	ws := rec.WindowList()
	if len(ws) == 0 {
		t.Fatal("sharded run recorded no window events")
	}
	shards := map[int32]bool{}
	for _, w := range ws {
		shards[w.Shard] = true
		if w.Index == 0 || w.End < w.Start {
			t.Fatalf("malformed window event %+v", w)
		}
	}
	if len(shards) != 4 {
		t.Errorf("shard tracks = %d, want 4", len(shards))
	}
	var buf bytes.Buffer
	if err := obs.WriteTimeline(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"shards"`) {
		t.Error("timeline missing the shards process group")
	}
}

// TestResultHists: histograms ride on simmpi.Result when enabled, stay nil
// when not, and observing them does not perturb the simulation.
func TestResultHists(t *testing.T) {
	plain := runFlight(t, 16, 4, 4, 1, nil)
	if plain.Hists != nil {
		t.Error("Hists attached without a recorder")
	}
	rec := &obs.Recorder{Hist: true}
	res := runFlight(t, 16, 4, 4, 1, rec)
	if res.Hists == nil {
		t.Fatal("Hists missing with Hist recorder")
	}
	if res.Time != plain.Time || res.Events != plain.Events {
		t.Errorf("recorder perturbed the run: %v/%d vs %v/%d",
			res.Time, res.Events, plain.Time, plain.Events)
	}
	if got := res.Hists.MsgLatency.N(); got != res.Sends {
		t.Errorf("MsgLatency observations = %d, messages = %d", got, res.Sends)
	}
	if res.Hists.RecvWait.N() == 0 {
		t.Error("no recv-wait observations")
	}
	if res.Hists.LinkDelay.N() != res.LinkRequests {
		t.Errorf("LinkDelay observations = %d, link requests = %d",
			res.Hists.LinkDelay.N(), res.LinkRequests)
	}
	// Accumulation across runs without Reset is documented behaviour.
	res2 := runFlight(t, 16, 4, 4, 1, rec)
	if got := res2.Hists.MsgLatency.N(); got != 2*res.Sends {
		t.Errorf("second run accumulated to %d, want %d", got, 2*res.Sends)
	}
}
