// Package obs is the simulator's flight recorder: a unified, deterministic
// observability layer for the discrete-event MPI stack. A Recorder attached
// to a simulation (simmpi.Options.Obs) collects four event streams —
// per-rank activity spans, message lifetimes, interconnect link
// reservations and lookahead-window statistics — plus log-bucketed duration
// histograms (hist.go), and renders them as a Chrome trace-event timeline
// for ui.perfetto.dev (timeline.go) or a sampled CSV time series
// (sampler.go). internal/trace turns the spans into per-rank activity
// breakdowns and a text Gantt chart.
//
// Two properties shape the design:
//
//   - Disabled is free. Every hook in the simulator is nil-guarded (or a
//     cached boolean), so a run without a recorder performs no observability
//     work and no allocations; cmd/benchgate gates the hook overhead via
//     events_per_sec_obs_disabled.
//
//   - Enabled is deterministic. A Recorder does not force serial
//     execution: sharded runs append spans to per-rank buffers (each rank
//     is owned by exactly one shard), accumulate histograms in
//     per-shard scratch merged additively at the end, and record link and
//     window events only from single-threaded code (the barrier
//     coordinator). Exports sort every stream by content, and histograms
//     store only integer bucket counts, so the rendered output is
//     byte-identical for any worker or shard count. The one exception is
//     the scheduler's own telemetry — window events and the WindowStall
//     histogram — which necessarily varies with the shard count.
package obs

import (
	"os"
	"path/filepath"
	"sort"
)

// Span kinds, mirroring the simmpi operation kinds by value (asserted in
// the tests) without importing the package: obs must stay a leaf package
// importable from anywhere in the simulator stack.
const (
	SpanCompute uint8 = iota
	SpanSend
	SpanRecv
	SpanAllReduce
	SpanBcast
	SpanBarrier
)

// spanNames labels span kinds in exports.
var spanNames = [...]string{"compute", "send", "recv", "allreduce", "bcast", "barrier"}

// SpanName returns the export label of a span kind.
func SpanName(kind uint8) string {
	if int(kind) < len(spanNames) {
		return spanNames[kind]
	}
	return "op"
}

// Span is one activity interval of a rank: a compute burst or the blocking
// interval of a communication operation.
type Span struct {
	Start, End float64
	Rank       int32
	Peer       int32 // send/recv peer; -1 for compute and collectives
	Bytes      int32
	Kind       uint8
}

// MsgEvent is one completed message: send start to data ready at the
// receiver.
type MsgEvent struct {
	Send     float64 // sender's operation start time (µs)
	Ready    float64 // data ready at the receiver (µs)
	Src, Dst int32
	Bytes    int32
	Rdv      bool // rendezvous protocol (eager otherwise)
}

// LinkEvent is one interconnect link reservation.
type LinkEvent struct {
	Start float64 // service start, after queueing (µs)
	Wait  float64 // queueing delay (µs)
	Dur   float64 // link occupancy (µs)
	Link  int32
}

// OpEvent is one program operation exactly as the simulator consumed it
// from Program.Next — pre-expansion for collectives, durations
// bit-exact. A recorded op stream is a complete, replayable description
// of a rank's program (see internal/replay).
type OpEvent struct {
	Dur   float64
	Peer  int32
	Bytes int32
	Kind  uint8
}

// WindowEvent is one shard's view of one lookahead window.
type WindowEvent struct {
	Start, End float64
	Index      uint64 // window number, starting at 1
	Events     uint64 // events the shard executed inside the window
	Shard      int32
	Pending    int32 // shard event-heap depth at the closing barrier
}

// Recorder collects simulation event streams and histograms. Set the
// feature flags before attaching it to a simulation; all of them default
// to off, and recording with every flag false is valid but collects
// nothing. A Recorder accumulates across runs until Reset.
//
// The recording methods are called by the simulator under its own
// synchronisation discipline (see the package comment); they are not safe
// for arbitrary concurrent use.
type Recorder struct {
	// Spans records per-rank activity spans (timeline rank tracks, sampler
	// rank-state counts).
	Spans bool
	// Messages records message lifetimes (sampler in-flight counts).
	Messages bool
	// Links records interconnect link reservations (timeline link tracks,
	// sampler link business).
	Links bool
	// Windows records lookahead-window events on sharded runs (timeline
	// shard tracks). Serial runs have no windows.
	Windows bool
	// Hist accumulates the duration histograms.
	Hist bool
	// Ops records per-rank program op streams (trace recording for
	// internal/replay). Ops arrive in program order from the shard that
	// owns the rank, so the stream is deterministic for any shard count.
	Ops bool

	spans    [][]Span
	ops      [][]OpEvent
	msgs     []MsgEvent
	links    []LinkEvent
	windows  []WindowEvent
	hists    SimHists
	linkName func(link int) string
}

// PrepareRanks sizes the per-rank span buffers for a run of n ranks,
// truncating buffers kept from earlier runs. The simulator calls it before
// any shard goroutine starts.
func (r *Recorder) PrepareRanks(n int) {
	if cap(r.spans) < n {
		r.spans = append(r.spans[:cap(r.spans)], make([][]Span, n-cap(r.spans))...)
	}
	r.spans = r.spans[:n]
	for i := range r.spans {
		r.spans[i] = r.spans[i][:0]
	}
	if r.Ops {
		if cap(r.ops) < n {
			r.ops = append(r.ops[:cap(r.ops)], make([][]OpEvent, n-cap(r.ops))...)
		}
		r.ops = r.ops[:n]
		for i := range r.ops {
			r.ops[i] = r.ops[i][:0]
		}
	}
}

// Ranks returns the rank count of the prepared run.
func (r *Recorder) Ranks() int { return len(r.spans) }

// RankSpan records one activity span. Each rank's spans arrive in
// chronological order from the shard that owns the rank; distinct ranks may
// be recorded concurrently (they touch distinct buffer slots).
func (r *Recorder) RankSpan(rank int32, kind uint8, peer, bytes int32, start, end float64) {
	r.spans[rank] = append(r.spans[rank], Span{
		Start: start, End: end, Rank: rank, Peer: peer, Bytes: bytes, Kind: kind,
	})
}

// RankOp records one program operation. Like RankSpan, each rank's ops
// arrive in program order from the shard that owns the rank; distinct
// ranks may be recorded concurrently.
func (r *Recorder) RankOp(rank int32, kind uint8, peer, bytes int32, dur float64) {
	r.ops[rank] = append(r.ops[rank], OpEvent{Dur: dur, Peer: peer, Bytes: bytes, Kind: kind})
}

// RankOps returns rank's recorded op stream (aliased, not copied).
func (r *Recorder) RankOps(rank int) []OpEvent { return r.ops[rank] }

// AddMessages appends a batch of completed messages (a shard's scratch,
// folded in at the end of a run).
func (r *Recorder) AddMessages(ms []MsgEvent) { r.msgs = append(r.msgs, ms...) }

// Link records one interconnect link reservation. The simulator only calls
// it from single-threaded code: inline on serial runs, from the barrier
// coordinator's link replay on sharded ones. The signature matches
// topo.LinkTracer.
func (r *Recorder) Link(link int32, start, wait, dur float64) {
	if r.Links {
		r.links = append(r.links, LinkEvent{Start: start, Wait: wait, Dur: dur, Link: link})
	}
	if r.Hist {
		r.hists.LinkDelay.Observe(wait)
	}
}

// NameLinks sets how timeline link tracks are labelled. The simulator
// hands it the interconnect's topo.Interconnect.LinkName whenever it
// attaches the recorder's link tracer.
func (r *Recorder) NameLinks(name func(link int) string) { r.linkName = name }

// Window records one (shard, window) observation from the barrier
// coordinator; a window in which the shard ran no events counts as a stall
// of the window's length.
func (r *Recorder) Window(index uint64, shard int32, start, end float64, events uint64, pending int) {
	if r.Windows {
		r.windows = append(r.windows, WindowEvent{
			Start: start, End: end, Index: index, Events: events,
			Shard: shard, Pending: int32(pending),
		})
	}
	if r.Hist && events == 0 {
		r.hists.WindowStall.Observe(end - start)
	}
}

// MergeHists folds a shard's scratch histograms into the recorder's.
func (r *Recorder) MergeHists(h *SimHists) { r.hists.Merge(h) }

// Hists returns the accumulated histograms (aliased, not copied).
func (r *Recorder) Hists() *SimHists { return &r.hists }

// Reset empties every stream and histogram, keeping buffer capacity.
func (r *Recorder) Reset() {
	for i := range r.spans {
		r.spans[i] = r.spans[i][:0]
	}
	r.spans = r.spans[:0]
	for i := range r.ops {
		r.ops[i] = r.ops[i][:0]
	}
	r.ops = r.ops[:0]
	r.msgs = r.msgs[:0]
	r.links = r.links[:0]
	r.windows = r.windows[:0]
	r.hists.Reset()
}

// SpanList returns all spans rank-major, chronological within each rank —
// a content-derived order, identical for every shard count.
func (r *Recorder) SpanList() []Span {
	total := 0
	for i := range r.spans {
		total += len(r.spans[i])
	}
	out := make([]Span, 0, total)
	for i := range r.spans {
		out = append(out, r.spans[i]...)
	}
	return out
}

// MsgList returns the completed messages sorted by (send time, src, dst) —
// unique for blocking sends, so the order is content-derived.
func (r *Recorder) MsgList() []MsgEvent {
	out := make([]MsgEvent, len(r.msgs))
	copy(out, r.msgs)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Send != b.Send {
			return a.Send < b.Send
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return out
}

// LinkList returns the link reservations sorted by (service start, link,
// occupancy, wait); FCFS links cannot hold two distinct reservations with
// the same start, so the order is content-derived.
func (r *Recorder) LinkList() []LinkEvent {
	out := make([]LinkEvent, len(r.links))
	copy(out, r.links)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		return a.Wait < b.Wait
	})
	return out
}

// WindowList returns the window events sorted by (window index, shard).
func (r *Recorder) WindowList() []WindowEvent {
	out := make([]WindowEvent, len(r.windows))
	copy(out, r.windows)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Shard < b.Shard
	})
	return out
}

// EnsureParent creates the parent directory of an output path so callers
// can write artifacts to paths like runs/day1/trace.json directly. A bare
// filename needs no directory and is a no-op.
func EnsureParent(path string) error {
	dir := filepath.Dir(path)
	if dir == "." || dir == "" {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}
