// Package simmpi is a deterministic discrete-event simulator of an
// MPI-style message-passing runtime on a multi-core parallel machine.
//
// Each rank executes a program of operations (Compute, Send, Recv,
// AllReduce) with blocking MPI semantics. Message timing follows the LogGP
// sub-models of paper Table 1: the eager protocol for messages of at most
// 1024 bytes and the rendezvous (handshake) protocol above that threshold
// (Section 3.1), with the on-chip copy/DMA paths of Section 3.2 when sender
// and receiver share a node. Every off-node or on-chip DMA passes through
// the owning node's shared bus (a FCFS resource, paper Section 4.3), so
// multi-core message contention emerges from queueing rather than being a
// closed-form term. When the topology carries an inter-node interconnect
// (internal/topo), off-node data segments additionally route across
// contended torus or fat-tree links; small rendezvous control messages
// (RTS/CTS) and the closed-form all-reduce stay on the latency-dominated
// flat-wire model.
//
// The hot path is allocation-free: message lifetimes are an explicit
// state machine of typed des events (events.go), message and receive
// records live in index-addressed pools, and channels are flat per-rank
// neighbour tables whose queues are linked through the message records
// (pool.go). Event ordering is bit-identical to the original
// closure-based implementation (golden_test.go).
//
// # Parallel execution
//
// All of that state lives in per-shard structs (type shard): a serial run
// is exactly one shard executing its engine to completion, and
// Options.Shards partitions the ranks — node-aligned, so buses stay
// shard-local — across K shards advanced concurrently inside conservative
// lookahead windows (des.Group, parallel.go). Cross-shard messages become boundary records
// merged deterministically at window barriers, so the parallel result is
// bit-identical to the serial one for any shard count.
//
// The simulator serves as the reproduction's "measured" substrate: the
// plug-and-play analytic model of internal/core is validated against it the
// way the paper validates against the Cray XT4.
package simmpi

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/des"
	"repro/internal/logp"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// OpKind identifies a program operation.
type OpKind uint8

// Program operations.
const (
	OpCompute   OpKind = iota // local computation for Dur microseconds
	OpSend                    // blocking MPI send of Bytes to Peer
	OpRecv                    // blocking MPI receive from Peer
	OpAllReduce               // MPI all-reduce of Bytes over all ranks
	OpBcast                   // MPI broadcast of Bytes from root Peer
	OpBarrier                 // MPI barrier over all ranks
)

// Op is a single program operation. The zero Op is a zero-length compute.
//
// The struct deliberately stays at four fields: the compiler only
// SSA-decomposes small structs, and a fifth field pushes every Op copy in
// the simulator's hot loop through memory (measured ≈8% event-rate loss).
// Collective algorithm selection therefore rides in Peer, which all-reduce
// ops do not otherwise use (see CollAlgOf in collops.go).
type Op struct {
	Kind  OpKind
	Peer  int32   // send/recv peer rank; broadcast root; all-reduce CollAlg
	Bytes int32   // message size in bytes
	Dur   float64 // compute duration in microseconds
}

// Compute returns a computation op of the given duration in microseconds.
func Compute(dur float64) Op { return Op{Kind: OpCompute, Dur: dur} }

// Send returns a blocking send op.
func Send(peer, bytes int) Op {
	return Op{Kind: OpSend, Peer: int32(peer), Bytes: int32(bytes)}
}

// Recv returns a blocking receive op.
func Recv(peer int) Op { return Op{Kind: OpRecv, Peer: int32(peer)} }

// AllReduce returns an all-reduce op over all ranks.
func AllReduce(bytes int) Op { return Op{Kind: OpAllReduce, Bytes: int32(bytes)} }

// Program supplies a rank's operations one at a time, which lets wavefront
// programs with millions of operations be generated lazily.
type Program interface {
	// Next returns the next operation, or ok == false at program end.
	Next() (op Op, ok bool)
}

// SliceProgram is a Program backed by a slice of operations.
type SliceProgram struct {
	ops []Op
	pos int
}

// Ops builds a SliceProgram from a fixed operation list.
func Ops(ops ...Op) *SliceProgram { return &SliceProgram{ops: ops} }

// Next implements Program.
func (p *SliceProgram) Next() (Op, bool) {
	if p.pos >= len(p.ops) {
		return Op{}, false
	}
	op := p.ops[p.pos]
	p.pos++
	return op, true
}

// Result summarises a completed simulation.
type Result struct {
	// Time is the virtual time at which the last rank finished, in µs.
	Time float64
	// RankFinish holds each rank's finish time in µs.
	RankFinish []float64
	// ComputeTime holds each rank's total Compute-op time in µs; the
	// difference between finish and compute time is time spent in
	// communication and pipeline waiting (paper Figure 11's breakdown).
	ComputeTime []float64
	// Sends, Recvs and BytesSent count message traffic.
	Sends, Recvs uint64
	BytesSent    uint64
	// Events is the number of discrete events executed.
	Events uint64
	// BusRequests/BusQueued/BusBusy/BusWait aggregate shared-bus contention.
	BusRequests, BusQueued uint64
	BusBusy, BusWait       float64
	// LinkRequests/LinkQueued/LinkBusy/LinkWait aggregate interconnect link
	// contention (internal/topo); all zero on the flat-wire network.
	LinkRequests, LinkQueued uint64
	LinkBusy, LinkWait       float64
	// Hists carries the run's duration histograms when a flight recorder
	// with Hist enabled was attached (Options.Obs); nil otherwise. The
	// pointer aliases the recorder's accumulator, which keeps accumulating
	// if the recorder is reused without a Reset.
	Hists *obs.SimHists
}

// Sim is a configured simulation instance. A Sim may be run once; call
// ResetWithOptions to rebind it to a (possibly different) topology and run
// it again reusing the event heap, message pools and channel tables of the
// previous run.
type Sim struct {
	topo   *simnet.Topology
	ranks  []rankState
	obs    *obs.Recorder
	arGens []arGen

	// Per-rank side tables, kept out of rankState because most runs never
	// touch them. spans holds each rank's open communication op while the
	// recorder records spans, and is empty otherwise. coll holds each rank's
	// collective buffer: the point-to-point constituents of the collective
	// it is running (collops.go), reused across collectives and resets so
	// that collective programs run allocation-free. Only a run that expands
	// a collective allocates coll, at its first expansion (collTable);
	// ResetWithOptions alone resizes it, so it never changes size while
	// shards run.
	spans  []commSpan
	coll   [][]Op
	collMu sync.Mutex // guards the allocation of coll

	// shards hold all hot-path state (engines, pools, channel tables,
	// counters). A serial run is shards[0] executing alone; a sharded run
	// grows the slice and partitions the ranks (parallel.go). Shards are
	// pointers so the engine handlers installed at construction stay valid
	// as the slice grows.
	shards  []*shard
	nshards int // requested shard count (effective count resolved in Run)
	prun    *parRun
}

// rankState is one rank's hot-path record, 80 bytes. What most runs never
// use lives in the Sim's side tables (spans, coll).
type rankState struct {
	prog    Program
	t       float64 // local time of last completed operation
	compute float64

	// out is the rank's flat channel table (pool.go): a port for each peer
	// it sends to and, in a sharded run, an in-port for each sender on
	// another shard, under the marked peer ^src (chanIndexIn).
	out []port

	id    int32
	arGen int32 // next all-reduce generation this rank enters

	// collIx is the next constituent op of the rank's collective in
	// progress, an index into its buffer Sim.coll[id]; none when no
	// collective is in progress.
	collIx int32

	// The comm op waiting for its evComm event. A send, receive or
	// all-reduce has no duration, so only its kind, peer and size are kept.
	pendPeer, pendBytes int32
	pendKind            OpKind

	done bool
}

// commSpan is a rank's communication op in progress and its start time, for
// the recorder's spans. The zero value, a Compute op, means none is open:
// only Send, Recv and AllReduce ops open one (execComm).
type commSpan struct {
	op    Op
	start float64
}

type arGen struct {
	bytes   int
	entered int
	times   []float64
	pt      float64 // parallel only: completion context, max entry pt
}

// shard owns the event engine and every piece of message-machinery state
// for a partition of the ranks. In a serial run there is exactly one shard
// holding everything; in a parallel run each shard's state is touched only
// by its own goroutine inside a window (and by the single-threaded barrier
// coordinator between windows), so no locks appear on the hot path.
type shard struct {
	sim *Sim
	id  int32
	eng des.Engine

	topo  *simnet.Topology
	par   logp.Params // snapshot of topo.Params (frozen per Topology contract); hot handlers avoid re-copying the struct
	ranks []rankState // shared header of Sim.ranks; shards touch only their own partition

	// Flight-recorder snapshot (Options.Obs): the recorder plus cached
	// feature booleans so hot-path guards are single loads, and the shard's
	// private histogram scratch and message log — merged into the recorder
	// single-threaded at assemble, so sharded recording needs no locks.
	obs         *obs.Recorder
	obsSpans    bool
	obsMsg      bool
	obsOps      bool
	hists       *obs.SimHists // points at histScratch when enabled, else nil
	histScratch obs.SimHists
	obsMsgs     []obs.MsgEvent

	// xpart maps rank → owning shard; nil in a serial run, which is the
	// hot path's "is this send cross-shard?" test. xlinks defers shared
	// interconnect reservations to the barrier (parallel + interconnect).
	xpart  []int32
	xlinks bool

	// canon selects the content-derived canonical same-time event order
	// (events.go evPri) instead of the legacy scheduling-order tiebreak.
	// Set for any run requested with Options.Shards > 1 — including ones
	// that fall back to a single shard — never for a default serial run,
	// whose event order stays bit-identical to the original closure
	// implementation (golden_test.go).
	canon bool

	// coll is the Sim's collective side table, loaded at the shard's first
	// expansion in a run (expand).
	coll [][]Op

	// Pooled hot-path state (pool.go).
	channels []channel
	msgs     []message
	msgFree  []int32
	reqs     []recvReq
	reqFree  []int32

	sends uint64
	recvs uint64
	bytes uint64

	// Bus requests the shard made and those that queued (acquireBus). The
	// buses keep only their busy and waiting time; the shard counts its own
	// requests, because shards acquire their buses concurrently.
	busReqs, busQueued uint64

	// Parallel-run boundary buffers (parallel.go): cross-shard message
	// records, deferred link reservations with their routes and closed-form
	// all-reduce entries emitted during a window, drained by the barrier
	// coordinator; and the link arrivals and sender-side frees the barrier
	// leaves for the shard's owner to apply at the next window's start.
	xrecs        []crossRec
	linkOps      []linkOp
	linkUnsorted bool // linkOps is out of linkBefore order
	routes       []int32
	arEnter      []arEntry
	emit         int32 // per-window emission counter ordering boundary records
	arrivals     []arrival
	frees        []int32
}

// New creates a simulation over the given topology. Programs are assigned
// with SetProgram; ranks without a program terminate immediately.
func New(topo *simnet.Topology) *Sim {
	s := &Sim{
		topo:  topo,
		ranks: make([]rankState, topo.Ranks()),
	}
	for i := range s.ranks {
		s.ranks[i].id = int32(i)
		s.ranks[i].collIx = none
	}
	s.shards = []*shard{s.newShard(0)}
	return s
}

// newShard constructs shard i with its handler installed and its snapshot
// fields bound to the Sim's current topology.
func (s *Sim) newShard(i int32) *shard {
	sh := &shard{sim: s, id: i}
	sh.bind()
	sh.eng.SetHandler(sh.handle)
	return sh
}

// bind refreshes a shard's per-run snapshot fields (topology, parameters,
// rank table header, recorder). Called at construction and on every reset —
// Sim.ranks may have been reallocated for a larger rank count.
func (sh *shard) bind() {
	s := sh.sim
	sh.topo = s.topo
	sh.par = s.topo.Params
	sh.ranks = s.ranks
	sh.coll = s.coll
	sh.obs = s.obs
	sh.obsSpans = s.obs != nil && s.obs.Spans
	sh.obsMsg = s.obs != nil && s.obs.Messages
	sh.obsOps = s.obs != nil && s.obs.Ops
	sh.hists = nil
	if s.obs != nil && s.obs.Hist {
		sh.histScratch.Reset()
		sh.hists = &sh.histScratch
	}
	sh.xpart = nil
	sh.xlinks = false
	sh.canon = s.nshards > 1
}

// clear returns a shard's pools and counters to the pristine state while
// keeping every backing array (see Sim.ResetWithOptions).
func (sh *shard) clear() {
	sh.eng.Reset()
	sh.channels = sh.channels[:0]
	sh.msgs, sh.msgFree = sh.msgs[:0], sh.msgFree[:0]
	sh.reqs, sh.reqFree = sh.reqs[:0], sh.reqFree[:0]
	sh.sends, sh.recvs, sh.bytes = 0, 0, 0
	sh.busReqs, sh.busQueued = 0, 0
	sh.obsMsgs = sh.obsMsgs[:0]
	sh.xrecs = sh.xrecs[:0]
	sh.linkOps, sh.linkUnsorted, sh.routes = sh.linkOps[:0], false, sh.routes[:0]
	sh.arEnter = sh.arEnter[:0]
	sh.emit = 0
	sh.arrivals, sh.frees = sh.arrivals[:0], sh.frees[:0]
}

// SetProgram assigns rank r's program.
func (s *Sim) SetProgram(r int, p Program) { s.ranks[r].prog = p }

// Run executes the simulation to completion. It returns an error if any
// rank blocks forever (deadlock) — e.g. a receive with no matching send.
func (s *Sim) Run() (Result, error) {
	if o := s.obs; o != nil {
		o.PrepareRanks(len(s.ranks))
		if o.Spans {
			s.spans = slices.Grow(s.spans[:0], len(s.ranks))[:len(s.ranks)]
			clear(s.spans)
		}
		if o.Links || o.Hist {
			s.topo.SetLinkTracer(o.Link)
			defer s.topo.SetLinkTracer(nil)
			o.NameLinks(s.topo.Interconnect().LinkName)
		}
	}
	if s.prun != nil {
		s.prun.k = 1 // ParallelStats of a serial run, until runParallel sets k
	}
	if k := s.effectiveShards(); k > 1 {
		return s.runParallel(k)
	}
	sh := s.shards[0]
	sh.bind()
	for i := range s.ranks {
		sh.advance(&s.ranks[i])
	}
	end := sh.eng.Run()
	return s.assemble(end)
}

// assemble folds the final engine clock and the per-shard counters into a
// Result and performs the deadlock check. The serial and parallel paths
// share it: every field is a sum or max over shards, so the fold is
// independent of how many shards the run used.
func (s *Sim) assemble(end float64) (Result, error) {
	// Pure-compute programs advance rank-local clocks without scheduling
	// events, so the finish time is the later of the engine clock and the
	// last rank-local completion.
	for i := range s.ranks {
		if s.ranks[i].done && s.ranks[i].t > end {
			end = s.ranks[i].t
		}
	}

	res := Result{
		Time:        end,
		RankFinish:  make([]float64, len(s.ranks)),
		ComputeTime: make([]float64, len(s.ranks)),
	}
	for _, sh := range s.shards {
		res.Sends += sh.sends
		res.Recvs += sh.recvs
		res.BytesSent += sh.bytes
		res.Events += sh.eng.EventsRun()
		res.BusRequests += sh.busReqs
		res.BusQueued += sh.busQueued
	}
	res.BusBusy, res.BusWait = s.topo.BusStats()
	res.LinkRequests, res.LinkQueued, res.LinkBusy, res.LinkWait = s.topo.LinkStats()

	if o := s.obs; o != nil {
		for _, sh := range s.shards {
			if len(sh.obsMsgs) > 0 {
				o.AddMessages(sh.obsMsgs)
			}
			if sh.hists != nil {
				o.MergeHists(sh.hists)
			}
		}
		if o.Hist {
			res.Hists = o.Hists()
		}
	}

	var blocked []int
	for i := range s.ranks {
		r := &s.ranks[i]
		if !r.done {
			blocked = append(blocked, int(r.id))
			continue
		}
		res.RankFinish[r.id] = r.t
		res.ComputeTime[r.id] = r.compute
	}
	if len(blocked) > 0 {
		sort.Ints(blocked)
		if len(blocked) > 8 {
			return res, fmt.Errorf("simmpi: deadlock, %d ranks blocked (first: %v)", len(blocked), blocked[:8])
		}
		return res, fmt.Errorf("simmpi: deadlock, ranks blocked: %v", blocked)
	}
	return res, nil
}

// advance executes r's program from the current virtual time until the rank
// blocks on a communication operation or finishes. Precondition: the
// engine's clock does not exceed r.t.
func (sh *shard) advance(r *rankState) {
	if sh.obsSpans {
		if c := &sh.sim.spans[r.id]; c.op.Kind != OpCompute {
			peer := c.op.Peer
			if c.op.Kind == OpAllReduce {
				peer = -1
			}
			sh.obs.RankSpan(r.id, uint8(c.op.Kind), peer, c.op.Bytes, c.start, r.t)
			*c = commSpan{}
		}
	}
	for {
		var op Op
		if r.collIx != none {
			// Drain the constituent ops of the collective in progress.
			buf := sh.coll[r.id]
			op = buf[r.collIx]
			if r.collIx++; int(r.collIx) == len(buf) {
				r.collIx = none
			}
		} else {
			if r.prog == nil {
				sh.finish(r)
				return
			}
			var ok bool
			op, ok = r.prog.Next()
			if !ok {
				sh.finish(r)
				return
			}
			// Record the op pre-expansion: collective constituents are
			// re-derived deterministically on replay, so the trace stays
			// proportional to the program, not to P × collective size.
			if sh.obsOps {
				sh.obs.RankOp(r.id, uint8(op.Kind), op.Peer, op.Bytes, op.Dur)
			}
			if expandsToP2P(op) {
				sh.expand(r, op)
				continue
			}
		}
		switch op.Kind {
		case OpCompute:
			if sh.obsSpans && op.Dur > 0 {
				sh.obs.RankSpan(r.id, uint8(OpCompute), -1, 0, r.t, r.t+op.Dur)
			}
			r.compute += op.Dur
			r.t += op.Dur
		case OpSend, OpRecv, OpAllReduce:
			if r.t > sh.eng.Now() {
				r.pendKind, r.pendPeer, r.pendBytes = op.Kind, op.Peer, op.Bytes
				sh.at(r.t, evComm, r.id, r.id, r.id)
			} else {
				sh.execComm(r, op)
			}
			return
		default:
			panic(fmt.Sprintf("simmpi: unknown op kind %d", op.Kind))
		}
	}
}

func (sh *shard) finish(r *rankState) {
	r.done = true
}

// expand writes rank r's point-to-point share of the collective op into its
// buffer in the side table and starts draining it; an empty share leaves
// no collective in progress.
func (sh *shard) expand(r *rankState, op Op) {
	if sh.coll == nil {
		sh.coll = sh.sim.collTable()
	}
	buf := AppendCollective(sh.coll[r.id][:0], op, int(r.id), len(sh.ranks))
	sh.coll[r.id] = buf
	if len(buf) > 0 {
		r.collIx = 0
	}
}

// collTable returns the collective side table, allocating it for every
// rank at the Sim's first expansion. The shards of a parallel run may get
// here at once, so the allocation is locked; afterwards each shard writes
// only its own ranks' entries.
func (s *Sim) collTable() [][]Op {
	s.collMu.Lock()
	defer s.collMu.Unlock()
	if s.coll == nil {
		s.coll = make([][]Op, len(s.ranks))
	}
	return s.coll
}

// acquireBus reserves rank r's bus (simnet.Topology.AcquireBus), counts the
// request, and returns its queueing delay.
func (sh *shard) acquireBus(r int32, now float64, size int32) float64 {
	wait := sh.topo.AcquireBus(int(r), now, int(size))
	sh.busReqs++
	if wait > 0 {
		sh.busQueued++
	}
	return wait
}

// resumeAt unblocks r at virtual time t ≥ now.
func (sh *shard) resumeAt(r *rankState, t float64) {
	r.t = t
	sh.at(t, evResume, r.id, r.id, r.id)
}

// resumeAtCtx is resumeAt with an explicit scheduling context, for resumes
// injected by the barrier coordinator (parallel.go).
func (sh *shard) resumeAtCtx(r *rankState, t, ctx float64) {
	r.t = t
	sh.atCtx(t, ctx, evResume, r.id, r.id, r.id)
}

// execComm performs a communication op at engine time == r.t.
func (sh *shard) execComm(r *rankState, op Op) {
	if sh.obsSpans {
		sh.sim.spans[r.id] = commSpan{op: op, start: r.t}
	}
	switch op.Kind {
	case OpSend:
		sh.execSend(r, int(op.Peer), int(op.Bytes))
	case OpRecv:
		sh.execRecv(r, int(op.Peer))
	case OpAllReduce:
		sh.execAllReduce(r, int(op.Bytes))
	}
}

func (sh *shard) execAllReduce(r *rankState, bytes int) {
	if sh.xpart != nil {
		// Parallel run: the closed-form all-reduce is a global operation —
		// record the entry and let the barrier coordinator complete the
		// generation once every rank has entered (parallel.go).
		sh.arEnter = append(sh.arEnter, arEntry{t: r.t, pt: sh.eng.Now(), gen: r.arGen, rank: r.id, bytes: int32(bytes)})
		r.arGen++
		return
	}
	s := sh.sim
	key := int(r.arGen)
	for len(s.arGens) <= key {
		s.arGens = append(s.arGens, arGen{})
	}
	gen := &s.arGens[key]
	if gen.times == nil {
		gen.bytes = bytes
		gen.times = make([]float64, len(s.ranks))
	}
	if gen.bytes != bytes {
		panic(fmt.Sprintf("simmpi: mismatched all-reduce sizes %d vs %d", gen.bytes, bytes))
	}
	gen.times[r.id] = r.t
	gen.entered++
	r.arGen++
	if gen.entered < len(s.ranks) {
		return
	}
	times := gen.times
	gen.times = nil // release; the generation is complete
	done := s.allReduceTimes(times, bytes)
	for i := range sh.ranks {
		sh.resumeAt(&sh.ranks[i], done[i])
	}
}

// allReduceTimes computes per-rank completion times of a recursive-doubling
// all-reduce with a pre/post fold for non-power-of-two rank counts, charging
// each exchange the LogGP TotalComm of its path. Within each round, the
// off-node exchanges of cores sharing a node serialise through the node's
// single NIC — the behaviour the paper's closed form (equation (9)) models
// with its ×C factor. The emergent time is compared against equation (9)
// in the experiments. It reads only immutable topology state, so the
// parallel path's barrier coordinator can call it as safely as a shard.
func (s *Sim) allReduceTimes(entry []float64, bytes int) []float64 {
	p := s.topo.Params
	n := len(entry)
	t := make([]float64, n)
	copy(t, entry)
	cost := func(a, b int) float64 { return p.TotalComm(s.topo.Path(a, b), bytes) }
	// serial returns the per-node NIC serialisation factor applied to an
	// off-node exchange in a round where every core participates: the k-th
	// core of a node starts its exchange after its node-mates finish.
	nicDelay := func(r, peer int) float64 {
		if s.topo.SameNode(r, peer) {
			return 0
		}
		// Count lower-indexed ranks on the same node exchanging off-node
		// this round; they occupy the NIC first.
		var before float64
		for q := r - 1; q >= 0; q-- {
			if !s.topo.SameNode(q, r) {
				break
			}
			before++
		}
		return before * cost(r, peer)
	}

	p2 := FloorPow2(n)
	// Fold extra ranks into the power-of-two core.
	for r := p2; r < n; r++ {
		peer := r - p2
		c := max(t[r], t[peer]) + cost(r, peer)
		t[peer] = c
	}
	// Recursive doubling among the core.
	next := make([]float64, n)
	for d := 1; d < p2; d <<= 1 {
		copy(next, t)
		for r := 0; r < p2; r++ {
			peer := r ^ d
			next[r] = max(t[r], t[peer]) + cost(r, peer) + nicDelay(r, peer)
		}
		t, next = next, t
	}
	// Broadcast the result back to the folded ranks.
	for r := p2; r < n; r++ {
		peer := r - p2
		t[r] = t[peer] + cost(peer, r)
	}
	return t
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
