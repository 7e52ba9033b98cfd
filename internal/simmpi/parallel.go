package simmpi

// Conservative parallel execution (classic CMB-style windowing, des.Group).
//
// Options{Shards: K} partitions the ranks into K shards along node
// boundaries, so every shared bus — and all on-chip traffic — stays inside
// one shard. Each shard owns a full event engine plus the message pools and
// channel tables of its ranks, and advances concurrently inside the global
// lookahead window [T, T+L): every cross-node event chain in the LogGP
// protocol carries at least one +L wire-latency term
// (simnet.Topology.Lookahead), and queueing only adds delay, so nothing a
// shard executes inside a window can affect another shard before the
// window ends.
//
// Cross-shard interactions never touch the peer shard directly. They are
// recorded in per-shard boundary buffers and merged by the barrier
// coordinator, which runs single-threaded between windows. The barrier
// holds only what must be ordered across shards; what affects one shard
// alone is left to the participant that owns it (des.Group's apply):
//
//   - xkMsg: a send whose receiver lives elsewhere. The coordinator creates
//     a proxy message in the receiver's shard — entering the channel FIFO in
//     send-time order, exactly where the serial run would have enqueued it —
//     and, for rendezvous, schedules the RTS. The sender-side original and
//     the proxy point at each other through message.proxy.
//   - xkCTS: the receiver's clear-to-send, scheduled back into the sender's
//     shard.
//   - xkEagerArrive / xkRdvArrive: the data arrival, scheduled into the
//     receiver's shard against the proxy; the sender-side record is freed.
//   - linkOp: with an interconnect attached, every link reservation (cross-
//     or intra-shard) is deferred. The emitting shard walks the route inside
//     its window; the coordinator reserves the routes serially in merged
//     event order, because links are shared machine-wide FCFS resources,
//     and computes each data arrival. The shard owning the receiver
//     schedules the arrival, and the sender's shard frees its record, at
//     the start of the next window, in parallel with the other shards.
//   - arEntry: closed-form all-reduce entries; the coordinator folds them
//     and resumes every rank once a generation is complete.
//
// Determinism: records are applied in (time, rank, shard, emission) order,
// and every parallel run — including its single-shard serial core — uses
// the canonical content-derived same-time event order (events.go evPri)
// instead of the engine's scheduling-order tiebreak. Scheduling order is a
// global counter a sharded run cannot reconstruct: a barrier-injected event
// has no way to recover the sequence number the serial engine would have
// interleaved it with. Content order needs no such counter, so the result
// is bit-identical for every shard count k ≥ 2 (the property tests pin
// 2, 3, 4 and 8 against each other and against the serial run). A default
// serial run keeps the legacy scheduling-order ties and stays bit-identical
// to the seed implementation (golden_test.go); the two orders coincide
// whenever same-time events touch disjoint state — every configuration in
// the test suite — and can differ microscopically in bus-contention stats
// on tie-heavy workloads.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/des"
	"repro/internal/logp"
)

// Boundary-record kinds (crossRec.kind).
const (
	xkMsg uint8 = iota + 1
	xkCTS
	xkEagerArrive
	xkRdvArrive
)

// crossRec is one buffered cross-shard effect. t is both the apply time and
// the merge-order key; rank/shard/idx complete the deterministic tiebreak.
// pt is the emitting event's virtual time — the scheduling context the
// serial engine would have given the event this record turns into.
type crossRec struct {
	t     float64
	pt    float64
	kind  uint8
	shard int32 // emitting shard
	idx   int32 // emission order within the shard's window
	rank  int32 // serial same-time tiebreak: the rank driving the chain
	src   int32
	dst   int32
	bytes int32
	smsg  int32 // sender-shard message pool index
	rdv   bool  // xkMsg: rendezvous protocol
}

// linkOp is a deferred interconnect reservation: the injection event ran
// (bus acquired, sender resumed, route walked into the shard's routes
// buffer) but the shared links are only reserved at the barrier, in merged
// event order — (t, ctx, pri), the canonical order the injection events
// themselves fire in. It carries everything the reservation and the
// arrival need, so the barrier reads the sender's message pool only for a
// cross-shard message's proxy.
type linkOp struct {
	t        float64 // injection event's virtual time (merge order)
	ctx      float64 // injection event's scheduling context (engine CurCtx)
	pri      uint64  // canonical same-time priority of the injection (evPri)
	start    float64 // bus-granted injection start
	src, dst int32
	bytes    int32
	mi       int32 // sender-shard message
	lo, hi   int32 // route span in the shard's routes buffer
	rdv      bool
	cross    bool // receiver owned by another shard
}

// arrival is a data arrival the link replay computed: the event (atCtx's
// arguments) the owning shard schedules at the start of the next window.
type arrival struct {
	t, ctx            float64
	kind              des.Kind
	owner, peer, arg0 int32
}

// arEntry is one rank entering a closed-form all-reduce generation. pt is
// the entering event's virtual time; the serial engine schedules every
// resume of a generation from the context of its last entry, so the
// completion context is the maximum pt over the generation's entries.
type arEntry struct {
	t     float64
	pt    float64
	gen   int32
	rank  int32
	bytes int32
}

// parRun is the coordinator state of one parallel run, reused across runs.
type parRun struct {
	k         int
	rankShard []int32
	engines   []*des.Engine

	// Barrier scratch, reused across windows.
	msgs   []crossRec
	others []crossRec
	next   []int // per-shard merge position in replayLinks

	windows uint64
	stalls  uint64
}

// ParallelStats reports the effective shard count of the last Run and the
// window/stall counters of its barrier scheduler; shards == 1 with zero
// counters for a serial run.
func (s *Sim) ParallelStats() (shards int, windows, stalls uint64) {
	if s.prun == nil || s.prun.k <= 1 {
		return 1, 0, 0
	}
	return s.prun.k, s.prun.windows, s.prun.stalls
}

// effectiveShards resolves the shard count a Run will actually use.
func (s *Sim) effectiveShards() int {
	k := s.nshards
	if k <= 1 || len(s.ranks) < 2 {
		return 1
	}
	if s.topo.Lookahead() <= 0 {
		return 1
	}
	nodes := s.nodeCount()
	if k > nodes {
		k = nodes
	}
	if k <= 1 || !s.allReduceWindowSafe() {
		return 1
	}
	return k
}

// nodeCount returns the number of node ids in use (placements produce
// contiguous ids starting at zero).
func (s *Sim) nodeCount() int {
	nodes := 0
	for r := range s.ranks {
		if n := s.topo.NodeOf(r) + 1; n > nodes {
			nodes = n
		}
	}
	return nodes
}

// allReduceWindowSafe reports whether every rank's closed-form all-reduce
// completion is guaranteed to land at least one lookahead L after the last
// entry, which the barrier coordinator needs to inject the resume events
// without rewinding any shard. The recursive-doubling schedule of
// allReduceTimes guarantees it when each core rank's final round (distance
// p2/2) and each folded rank's fold exchange are off-node: those exchanges
// cost ≥ L and dominate every completion time. Placements that violate it
// (e.g. a machine whose node holds half the power-of-two core) simply run
// serially.
func (s *Sim) allReduceWindowSafe() bool {
	n := len(s.ranks)
	p2 := FloorPow2(n)
	if p2 < 2 {
		return false
	}
	for r := 0; r < p2; r++ {
		if s.topo.SameNode(r, r^(p2/2)) {
			return false
		}
	}
	for r := p2; r < n; r++ {
		if s.topo.SameNode(r, r-p2) {
			return false
		}
	}
	return true
}

// blocksPerShard is how many contiguous node blocks partition deals to
// each shard. In three sets of three 2-shard runs of 4,096-rank LU (torus)
// and Sweep3D on a 2-vCPU Xeon VM, the set medians with 4 blocks were
// 1.04–1.19 s (LU) and 0.64–0.74 s (Sweep3D); 2 and 8 blocks were as fast
// within the noise, 1 block (1.12–1.40 s, 0.69–0.79 s) and 16 blocks
// (1.18–1.27 s, 0.78–0.83 s) slower, and nodes striped round-robin slowest
// (1.40–1.83 s, 1.04–1.19 s).
const blocksPerShard = 4

// partition assigns every rank to a shard: the node-id range is cut into
// k·blocksPerShard contiguous blocks (fewer when there are fewer nodes, so
// every block and every shard keeps at least one node) and block b goes to
// shard b mod k. Shards own whole nodes, so every bus group stays
// shard-local. Blocks, not striping: striping puts neighbouring nodes on
// different shards, which sends about half of all wavefront messages
// through the barrier; a few blocks per shard still spread the wavefront's
// moving band of consecutive ranks over every shard. Results do not depend
// on the partition — the canonical event order and the barrier merge order
// are partition-independent — so this is purely a performance choice.
func (s *Sim) partition(p *parRun, k int) {
	if cap(p.rankShard) < len(s.ranks) {
		p.rankShard = make([]int32, len(s.ranks))
	}
	p.rankShard = p.rankShard[:len(s.ranks)]
	nodes := s.nodeCount()
	blocks := min(k*blocksPerShard, nodes)
	for r := range s.ranks {
		b := s.topo.NodeOf(r) * blocks / nodes
		p.rankShard[r] = int32(b % k)
	}
}

// runParallel is the parallel counterpart of the serial branch in Run.
func (s *Sim) runParallel(k int) (Result, error) {
	if s.prun == nil {
		s.prun = &parRun{}
	}
	p := s.prun
	p.k = k
	p.windows, p.stalls = 0, 0
	s.partition(p, k)
	for len(s.shards) < k {
		s.shards = append(s.shards, s.newShard(int32(len(s.shards))))
	}
	xlinks := s.topo.Interconnect() != nil
	for i := 0; i < k; i++ {
		sh := s.shards[i]
		sh.bind()
		sh.xpart = p.rankShard
		sh.xlinks = xlinks
	}
	// The init loop visits ranks in rank order, like the serial path: each
	// shard's t=0 event sequence is the rank-order subsequence the serial
	// engine would have produced.
	for i := range s.ranks {
		s.shards[p.rankShard[i]].advance(&s.ranks[i])
	}

	p.engines = p.engines[:0]
	for i := 0; i < k; i++ {
		p.engines = append(p.engines, &s.shards[i].eng)
	}
	g := des.NewGroup(p.engines, s.topo.Lookahead())
	if o := s.obs; o != nil && (o.Windows || o.Hist) {
		g.SetObserver(func(window uint64, shard int, start, end float64, events uint64, pending int) {
			o.Window(window, int32(shard), start, end, events, pending)
		})
	}
	g.Run(func() float64 { return s.barrier(p) }, func(i int) { s.shards[i].applyArrivals() })
	p.windows, p.stalls = g.Windows(), g.Stalls()

	var end float64
	for i := 0; i < k; i++ {
		if t := s.shards[i].eng.Now(); t > end {
			end = t
		}
	}
	return s.assemble(end)
}

// --- boundary-record emission (shard side, inside windows) ---

// execSendCross is execSend for a receiver owned by another shard. Shards
// are node-aligned, so the pair is off-node by construction and only the
// eager and rendezvous LogGP paths of Table 1(a) apply.
func (sh *shard) execSendCross(r *rankState, peer, bytes int) {
	sh.sends++
	sh.bytes += uint64(bytes)
	ts := r.t
	p := &sh.par
	mi := sh.allocMsg()
	m := &sh.msgs[mi]
	m.src, m.dst, m.bytes, m.ch = r.id, int32(peer), int32(bytes), none
	m.sendAt = ts
	m.flags = msgCross
	rdv := bytes > logp.EagerThreshold
	sh.xrecs = append(sh.xrecs, crossRec{
		t: ts, pt: sh.eng.Now(), kind: xkMsg, shard: sh.id, idx: sh.emit, rank: r.id,
		src: r.id, dst: int32(peer), bytes: int32(bytes), smsg: mi, rdv: rdv,
	})
	sh.emit++
	if rdv {
		// Table 1(a) eq (2): the sender blocks until the CTS round-trip;
		// the receiver-side RTS is scheduled by the coordinator.
		m.flags |= msgRdv
		return
	}
	// Table 1(a) eq (1): eager, sender buffers and continues after o.
	sh.resumeAt(r, ts+p.O)
	sh.at(ts+p.O, evEagerInject, m.src, m.dst, mi)
}

// deferLinks reports whether link reservations must be replayed at the
// barrier (parallel run with an interconnect attached).
func (sh *shard) deferLinks() bool { return sh.xlinks }

// pushLinkOp defers an injection's interconnect reservation to the
// barrier. The route is walked here, inside the window, in parallel with
// the other shards; the barrier only reserves it. The recorded priority is
// the injection event's own canonical priority, so the barrier reserves
// links in exactly the order the serial engine fires the injection events.
func (sh *shard) pushLinkOp(t, start float64, mi int32, rdv bool) {
	m := &sh.msgs[mi]
	kind := evEagerInject
	if rdv {
		kind = evRdvInject
	}
	lo := int32(len(sh.routes))
	sh.routes = sh.topo.AppendRoute(sh.routes, int(m.src), int(m.dst))
	op := linkOp{
		t: t, ctx: sh.eng.CurCtx(), pri: evPri(kind, m.src, m.dst), start: start,
		src: m.src, dst: m.dst, bytes: m.bytes, mi: mi,
		lo: lo, hi: int32(len(sh.routes)), rdv: rdv, cross: m.flags&msgCross != 0,
	}
	if n := len(sh.linkOps); n > 0 && linkBefore(&op, &sh.linkOps[n-1]) {
		sh.linkUnsorted = true
	}
	sh.linkOps = append(sh.linkOps, op)
}

// emitArrive buffers a cross-shard data arrival (flat-wire path; with an
// interconnect the arrival comes out of the link replay instead).
func (sh *shard) emitArrive(kind uint8, t float64, mi int32) {
	m := &sh.msgs[mi]
	sh.xrecs = append(sh.xrecs, crossRec{
		t: t, pt: sh.eng.Now(), kind: kind, shard: sh.id, idx: sh.emit, rank: m.src,
		src: m.src, dst: m.dst, smsg: mi,
	})
	sh.emit++
}

// emitCTS buffers the clear-to-send of a cross-shard rendezvous, emitted by
// the receiver's shard against the sender-shard message (m.proxy).
func (sh *shard) emitCTS(t float64, mi int32) {
	m := &sh.msgs[mi]
	sh.xrecs = append(sh.xrecs, crossRec{
		t: t, pt: sh.eng.Now(), kind: xkCTS, shard: sh.id, idx: sh.emit, rank: m.dst,
		src: m.src, dst: m.dst, smsg: m.proxy,
	})
	sh.emit++
}

// --- barrier coordination (single-threaded, between windows) ---

// recCmp orders boundary records by (t, rank, shard, idx). (shard, idx)
// is unique per record, so the merged order does not depend on the sort.
func recCmp(a, b crossRec) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	if c := cmp.Compare(a.shard, b.shard); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// linkBefore reports whether a's injection fires before b's in the
// canonical order (t, ctx, pri). Event times are never NaN, so plain
// comparisons suffice. Ops of different shards never tie, because pri holds
// the sender rank; equal ops of one shard keep their emission order.
func linkBefore(a, b *linkOp) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.ctx != b.ctx {
		return a.ctx < b.ctx
	}
	return a.pri < b.pri
}

// barrier drains every shard's boundary buffers and applies them in the
// deterministic merged order: channel insertions first (they wire up the
// proxies everything else resolves through), then link reservations, then
// the remaining scheduled events, then all-reduce completions — matching
// the serial engine's scheduling order for each record class. The link
// reservations' arrivals are left to each shard's owner (applyArrivals);
// barrier returns the earliest of their times, or +Inf when there is none,
// for des.Group to open the next window no later than that.
func (s *Sim) barrier(p *parRun) float64 {
	p.msgs, p.others = p.msgs[:0], p.others[:0]
	anyAR := false
	for _, sh := range s.shards[:p.k] {
		for i := range sh.xrecs {
			if sh.xrecs[i].kind == xkMsg {
				p.msgs = append(p.msgs, sh.xrecs[i])
			} else {
				p.others = append(p.others, sh.xrecs[i])
			}
		}
		sh.xrecs = sh.xrecs[:0]
		if len(sh.arEnter) > 0 {
			anyAR = true
		}
		sh.emit = 0
	}
	slices.SortFunc(p.msgs, recCmp)
	for i := range p.msgs {
		s.applyMsg(p, &p.msgs[i])
	}
	earliest := s.replayLinks(p)
	slices.SortFunc(p.others, recCmp)
	for i := range p.others {
		s.applyRec(p, &p.others[i])
	}
	if anyAR {
		s.applyAllReduce(p)
	}
	return earliest
}

// replayLinks reserves every shard's deferred link ops in linkBefore order,
// hands each resulting arrival to the shard that owns its receiver, and
// returns the earliest arrival time (+Inf when no shard deferred an op).
// Only the reservations must run here: links are machine-wide FCFS
// resources, so their order is the merged order of all shards' injections.
// The route walks ran inside the window (pushLinkOp), and the owners
// schedule the arrivals and free the sender-side records at the start of
// the next window (applyArrivals), in parallel.
//
// A shard emits its link ops as its injection events fire, in (t, ctx,
// pri) order, so each shard's buffer is normally already sorted and a
// k-way merge replaces a sort of the whole set. The one exception needs
// zero send overheads: an injection scheduled with no delay by an event
// that fired after a same-time injection can carry a lower priority than
// it. pushLinkOp flags such a buffer, which is sorted first, so the
// reservation order is linkBefore order in every case.
//
// Why deferring the arrivals keeps every result bit-identical: an engine
// fires events in (time, ctx, pri) order, and only a full tie falls
// through to the payload slot, which depends on when the event was
// scheduled. Per engine, link arrivals are still scheduled in the merged
// order among themselves; they now follow the barrier's RTS, CTS and
// all-reduce resume events instead of preceding the CTS and resumes. Those
// are events of other kinds, and evPri is kind-major, so no arrival ties
// with them and the move reorders nothing. (Two arrivals that tie fully —
// same kind, ranks, time and context — are broken by slot, which already
// depends on each engine's history and so on the shard count; the property
// tests pin that no result depends on it.) The deferred frees change which
// message pool index a later message reuses, and pool indices are never
// observable in results.
func (s *Sim) replayLinks(p *parRun) float64 {
	shards := s.shards[:p.k]
	next := p.next[:0]
	for _, sh := range shards {
		if sh.linkUnsorted {
			ops := sh.linkOps
			sort.SliceStable(ops, func(i, j int) bool { return linkBefore(&ops[i], &ops[j]) })
			sh.linkUnsorted = false
		}
		next = append(next, 0)
	}
	p.next = next
	earliest := math.Inf(1)
	for {
		best := -1
		var op *linkOp
		for i, sh := range shards {
			if j := next[i]; j < len(sh.linkOps) && (op == nil || linkBefore(&sh.linkOps[j], op)) {
				best, op = i, &sh.linkOps[j]
			}
		}
		if best < 0 {
			break
		}
		if t := s.applyLink(p, shards[best], op); t < earliest {
			earliest = t
		}
		next[best]++
	}
	for _, sh := range shards {
		sh.linkOps, sh.routes = sh.linkOps[:0], sh.routes[:0]
	}
	return earliest
}

// applyMsg materialises a cross-shard send in the receiver's shard: proxy
// message, channel FIFO entry (in send-time order), receive matching, and —
// for rendezvous — the RTS event, all exactly as the serial execSend would
// have done at the send time.
func (s *Sim) applyMsg(p *parRun, rec *crossRec) {
	ssh := s.shards[rec.shard]
	dsh := s.shards[p.rankShard[rec.dst]]
	ci := dsh.chanIndexIn(rec.src, rec.dst)
	mi := dsh.allocMsg()
	m := &dsh.msgs[mi]
	m.src, m.dst, m.bytes = rec.src, rec.dst, rec.bytes
	m.sendAt = rec.t
	m.flags = msgCross
	m.proxy = rec.smsg
	ssh.msgs[rec.smsg].proxy = mi
	dsh.enqueue(ci, mi)
	if rec.rdv {
		m.flags |= msgRdv
		pp := &dsh.par
		dsh.atCtx(rec.t+pp.O+pp.L, rec.pt, evRTS, m.dst, m.src, mi)
	}
}

// applyLink reserves a deferred link op's route, computes its data
// arrival, and queues the arrival on the receiver's shard and, for a
// cross-shard message, the sender-side free on the sender's. It returns
// the arrival time.
func (s *Sim) applyLink(p *parRun, ssh *shard, op *linkOp) float64 {
	start := op.start
	start += s.topo.Interconnect().Reserve(ssh.routes[op.lo:op.hi], start, int(op.bytes))
	pp := &ssh.par
	arrive := start + float64(op.bytes)*pp.G + pp.L
	kind := evEagerArrive
	if op.rdv {
		kind = evRdvArrive
	}
	dsh, mi := ssh, op.mi
	if op.cross {
		dsh, mi = s.shards[p.rankShard[op.dst]], ssh.msgs[op.mi].proxy
		ssh.frees = append(ssh.frees, op.mi)
	}
	dsh.arrivals = append(dsh.arrivals, arrival{t: arrive, ctx: op.t, kind: kind, owner: op.dst, peer: op.src, arg0: mi})
	return arrive
}

// applyArrivals schedules the data arrivals the last barrier's link replay
// left for this shard and frees the sender-side records of its
// cross-shard messages whose data went out. The shard's owner runs it at
// the start of every window (des.Group's apply), before the shard's
// events and in parallel with the other shards.
func (sh *shard) applyArrivals() {
	for i := range sh.arrivals {
		a := &sh.arrivals[i]
		sh.atCtx(a.t, a.ctx, a.kind, a.owner, a.peer, a.arg0)
	}
	for _, mi := range sh.frees {
		sh.freeMsg(mi)
	}
	sh.arrivals, sh.frees = sh.arrivals[:0], sh.frees[:0]
}

// applyRec schedules a buffered cross-shard event (CTS or data arrival).
func (s *Sim) applyRec(p *parRun, rec *crossRec) {
	switch rec.kind {
	case xkCTS:
		ssh := s.shards[p.rankShard[rec.src]]
		ssh.atCtx(rec.t, rec.pt, evCTS, rec.src, rec.dst, rec.smsg)
	case xkEagerArrive, xkRdvArrive:
		ssh := s.shards[rec.shard]
		proxy := ssh.msgs[rec.smsg].proxy
		dsh := s.shards[p.rankShard[rec.dst]]
		kind := evEagerArrive
		if rec.kind == xkRdvArrive {
			kind = evRdvArrive
		}
		dsh.atCtx(rec.t, rec.pt, kind, rec.dst, rec.src, proxy)
		ssh.freeMsg(rec.smsg)
	default:
		panic(fmt.Sprintf("simmpi: unknown boundary record kind %d", rec.kind))
	}
}

// applyAllReduce folds the entry records into their generations and, when a
// generation is complete, computes the closed-form completion times and
// resumes every rank in rank order — the order the serial path uses. Every
// rank is blocked in the all-reduce at that point and completions land at
// least one lookahead past the final entry (allReduceWindowSafe), so the
// injected resumes never precede a shard's clock.
func (s *Sim) applyAllReduce(p *parRun) {
	maxGen := -1
	for _, sh := range s.shards[:p.k] {
		for _, e := range sh.arEnter {
			for len(s.arGens) <= int(e.gen) {
				s.arGens = append(s.arGens, arGen{})
			}
			g := &s.arGens[e.gen]
			if g.times == nil {
				g.bytes = int(e.bytes)
				g.times = make([]float64, len(s.ranks))
			}
			if g.bytes != int(e.bytes) {
				panic(fmt.Sprintf("simmpi: mismatched all-reduce sizes %d vs %d", g.bytes, e.bytes))
			}
			g.times[e.rank] = e.t
			g.entered++
			if e.pt > g.pt {
				g.pt = e.pt
			}
			if int(e.gen) > maxGen {
				maxGen = int(e.gen)
			}
		}
		sh.arEnter = sh.arEnter[:0]
	}
	for gi := 0; gi <= maxGen; gi++ {
		g := &s.arGens[gi]
		if g.times == nil || g.entered < len(s.ranks) {
			continue
		}
		times := g.times
		g.times = nil
		done := s.allReduceTimes(times, g.bytes)
		for i := range s.ranks {
			s.shards[p.rankShard[i]].resumeAtCtx(&s.ranks[i], done[i], g.pt)
		}
	}
}
