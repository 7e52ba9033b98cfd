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
// recorded in per-shard boundary buffers and applied by the barrier
// coordinator, which runs single-threaded between windows:
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
//   - linkOp: with an interconnect attached, every AcquireLinks call (cross-
//     or intra-shard) is deferred and replayed serially in merged event
//     order, because links are shared machine-wide resources.
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
	"slices"

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
// (bus acquired, sender resumed) but the shared links are only walked at
// the barrier, in merged event order — (t, ctx, pri), the canonical order
// the injection events themselves fire in.
type linkOp struct {
	t     float64 // injection event's virtual time (merge order)
	ctx   float64 // injection event's scheduling context (engine CurCtx)
	pri   uint64  // canonical same-time priority of the injection (evPri)
	start float64 // bus-granted injection start
	shard int32
	idx   int32
	mi    int32 // sender-shard message
	rdv   bool
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
	g.Run(func() { s.barrier(p) })
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
	m.cross = true
	rdv := bytes > logp.EagerThreshold
	sh.xrecs = append(sh.xrecs, crossRec{
		t: ts, pt: sh.eng.Now(), kind: xkMsg, shard: sh.id, idx: sh.emit, rank: r.id,
		src: r.id, dst: int32(peer), bytes: int32(bytes), smsg: mi, rdv: rdv,
	})
	sh.emit++
	if rdv {
		// Table 1(a) eq (2): the sender blocks until the CTS round-trip;
		// the receiver-side RTS is scheduled by the coordinator.
		m.rendezvous = true
		return
	}
	// Table 1(a) eq (1): eager, sender buffers and continues after o.
	sh.resumeAt(r, ts+p.O)
	sh.at(ts+p.O, evEagerInject, m.src, m.dst, mi)
}

// deferLinks reports whether link reservations must be replayed at the
// barrier (parallel run with an interconnect attached).
func (sh *shard) deferLinks() bool { return sh.xlinks }

// pushLinkOp defers an injection's interconnect walk to the barrier. The
// recorded priority is the injection event's own canonical priority, so
// the barrier's replay acquires links in exactly the order the serial
// engine fires the injection events.
func (sh *shard) pushLinkOp(t, start float64, mi int32, rdv bool) {
	m := &sh.msgs[mi]
	kind := evEagerInject
	if rdv {
		kind = evRdvInject
	}
	sh.linkOps = append(sh.linkOps, linkOp{
		t: t, ctx: sh.eng.CurCtx(), pri: evPri(kind, m.src, m.dst), start: start,
		shard: sh.id, idx: sh.emit, mi: mi, rdv: rdv,
	})
	sh.emit++
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

// linkCmp orders deferred link reservations by the canonical order of
// their injection events, (t, ctx, pri), then by the unique (shard, idx).
func linkCmp(a, b linkOp) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ctx, b.ctx); c != 0 {
		return c
	}
	if c := cmp.Compare(a.pri, b.pri); c != 0 {
		return c
	}
	if c := cmp.Compare(a.shard, b.shard); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// barrier drains every shard's boundary buffers and applies them in the
// deterministic merged order: channel insertions first (they wire up the
// proxies everything else resolves through), then link replays, then the
// remaining scheduled events, then all-reduce completions — matching the
// serial engine's scheduling order for each record class.
func (s *Sim) barrier(p *parRun) {
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
	s.replayLinks(p)
	slices.SortFunc(p.others, recCmp)
	for i := range p.others {
		s.applyRec(p, &p.others[i])
	}
	if anyAR {
		s.applyAllReduce(p)
	}
}

// replayLinks applies every shard's deferred link reservations in linkCmp
// order and empties the buffers. A shard emits its link ops as its
// injection events fire, in (t, ctx, pri) order, so each shard's buffer is
// normally already sorted and a k-way merge replaces a sort of the whole
// set. The one exception needs zero send overheads: an injection scheduled
// with no delay by an event that fired after a same-time injection can
// carry a lower priority than it. Such a buffer is sorted first, so the
// replay order is linkCmp order in every case.
func (s *Sim) replayLinks(p *parRun) {
	shards := s.shards[:p.k]
	next := p.next[:0]
	for _, sh := range shards {
		if !slices.IsSortedFunc(sh.linkOps, linkCmp) {
			slices.SortFunc(sh.linkOps, linkCmp)
		}
		next = append(next, 0)
	}
	p.next = next
	for {
		best := -1
		for i, sh := range shards {
			if next[i] < len(sh.linkOps) &&
				(best < 0 || linkCmp(sh.linkOps[next[i]], shards[best].linkOps[next[best]]) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		s.applyLink(p, &shards[best].linkOps[next[best]])
		next[best]++
	}
	for _, sh := range shards {
		sh.linkOps = sh.linkOps[:0]
	}
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
	m.src, m.dst, m.bytes, m.ch = rec.src, rec.dst, rec.bytes, ci
	m.sendAt = rec.t
	m.cross = true
	m.proxy = rec.smsg
	ssh.msgs[rec.smsg].proxy = mi
	ch := &dsh.channels[ci]
	ch.msgs.pushBack(mi)
	if ch.recvs.n > 0 {
		m.recv = ch.recvs.popFront()
	}
	if rec.rdv {
		m.rendezvous = true
		pp := &dsh.par
		dsh.atCtx(rec.t+pp.O+pp.L, rec.pt, evRTS, m.dst, m.src, mi)
	}
}

// applyLink replays a deferred interconnect reservation in merged event
// order and schedules the resulting data arrival.
func (s *Sim) applyLink(p *parRun, op *linkOp) {
	ssh := s.shards[op.shard]
	m := &ssh.msgs[op.mi]
	start := op.start
	start += s.topo.AcquireLinks(int(m.src), int(m.dst), start, int(m.bytes))
	pp := &ssh.par
	arrive := start + float64(m.bytes)*pp.G + pp.L
	kind := evEagerArrive
	if op.rdv {
		kind = evRdvArrive
	}
	if m.cross {
		dsh := s.shards[p.rankShard[m.dst]]
		dsh.atCtx(arrive, op.t, kind, m.dst, m.src, m.proxy)
		ssh.freeMsg(op.mi)
		return
	}
	ssh.atCtx(arrive, op.t, kind, m.dst, m.src, op.mi)
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
