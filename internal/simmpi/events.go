package simmpi

// This file is the simulator's event-kind state machine. Each stage of a
// message's lifetime that the seed implementation expressed as a nested
// closure is one typed event kind here; Event.Arg0 carries the rank index
// (evResume, evComm) or the message pool index (all others).
//
// Same-time event ordering comes in two modes, selected per run (shard.canon):
//
//   - Legacy (default serial run): events sharing a timestamp fire in
//     scheduling order, the engine's (time, seq) tiebreak. Every kind fires
//     at exactly the virtual time its closure predecessor did and events are
//     scheduled in the same relative order, so serial results are
//     bit-identical to the closure implementation (see golden_test.go).
//   - Canonical (any run requested with Options.Shards > 1, including its
//     single-shard serial core): same-time events fire in content order
//     (evPri below). Scheduling order is a global property a sharded run
//     cannot reproduce — a barrier-injected cross-shard event has no way to
//     recover the sequence number the serial engine would have given it —
//     so parallel mode derives the tie order from the event itself, making
//     it identical for every shard count.
//
// In a parallel run (shard.xpart != nil) three hooks divert a message whose
// stage belongs to another shard, or whose link reservation touches the
// shared interconnect, into the shard's boundary buffers instead of
// scheduling locally; the barrier coordinator (parallel.go) replays them in
// a deterministic merged order. A default serial run never takes any hook,
// so its instruction stream — and its results — are unchanged.

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/logp"
	"repro/internal/obs"
)

// Event kinds.
const (
	// evResume unblocks rank Arg0, whose local clock was set when the
	// event was scheduled, and advances its program.
	evResume des.Kind = iota
	// evComm starts rank Arg0's pending communication op at its local time.
	evComm
	// evDeliver marks message Arg0's data available at the receiver at the
	// event time (eager arrival or DMA completion).
	evDeliver
	// evEagerInject is the off-node eager injection point: the sender-side
	// bus is acquired and the wire flight to the receiver begins.
	evEagerInject
	// evEagerArrive is the off-node eager arrival: the receiver-side bus
	// is acquired and the message becomes ready.
	evEagerArrive
	// evChipDMA starts an on-chip large-message DMA through the node's
	// shared bus.
	evChipDMA
	// evRTS is the rendezvous request-to-send arriving at the receiver.
	evRTS
	// evCTS is the rendezvous clear-to-send arriving back at the sender.
	evCTS
	// evRdvInject is the rendezvous data injection after the handshake.
	evRdvInject
	// evRdvArrive is the rendezvous data arrival at the receiver.
	evRdvArrive
)

// evPri is the canonical same-time priority of an event — kind-major, then
// the acting rank, then the peer rank. It depends only on event content,
// never on scheduling order, so the sharded scheduler's single-shard core
// and its barrier-injected cross-shard events (which would otherwise pick
// up arbitrary sequence numbers) fire same-time events in exactly the same
// order for every shard count. Ranks are truncated to 18 bits: beyond 256K
// ranks same-time events of distinct rank pairs could tie, so
// NewWithOptions and ResetWithOptions reject sharded runs of more than
// maxShardedRanks ranks.
func evPri(kind des.Kind, owner, peer int32) uint64 {
	const rankPriMask = 1<<18 - 1
	return uint64(kind)<<36 |
		uint64(uint32(owner)&rankPriMask)<<18 |
		uint64(uint32(peer)&rankPriMask)
}

// at schedules a typed event under the run's same-time order — canonical
// content order (evPri) in parallel mode, legacy scheduling order otherwise.
// owner is the rank whose state (bus, channel, progress) the event acts on;
// peer the rank on the other end of the interaction, or the owner itself
// for purely local events.
func (sh *shard) at(t float64, kind des.Kind, owner, peer, arg0 int32) {
	if sh.canon {
		sh.eng.AtPri(t, evPri(kind, owner, peer), kind, arg0, 0)
		return
	}
	sh.eng.AtKind(t, kind, arg0, 0)
}

// atCtx schedules a typed event under the canonical order with an explicit
// scheduling context — the virtual time at which the serial engine would
// have scheduled it. Only the barrier coordinator needs it (parallel.go):
// events it injects were emitted inside another shard's window, so the
// injecting engine's own clock is not the scheduling context.
func (sh *shard) atCtx(t, ctx float64, kind des.Kind, owner, peer, arg0 int32) {
	sh.eng.AtPriCtx(t, ctx, evPri(kind, owner, peer), kind, arg0, 0)
}

// handle dispatches every typed event of the simulation.
func (sh *shard) handle(ev des.Event) {
	switch ev.Kind {
	case evResume:
		sh.advance(&sh.ranks[ev.Arg0])

	case evComm:
		r := &sh.ranks[ev.Arg0]
		sh.execComm(r, Op{Kind: r.pendKind, Peer: r.pendPeer, Bytes: r.pendBytes})

	case evDeliver:
		sh.deliver(ev.Arg0, sh.eng.Now())

	case evEagerInject:
		// Table 1(a) eq (1) continued: sender-side bus, then wire flight.
		// With an interconnect attached the flight additionally routes over
		// contended links (zero extra on the flat wire — bit-identical).
		m := &sh.msgs[ev.Arg0]
		p := &sh.par
		inject := sh.eng.Now()
		wait := sh.acquireBus(m.src, inject, m.bytes)
		start := inject + wait
		if sh.deferLinks() {
			sh.pushLinkOp(inject, start, ev.Arg0, false)
			return
		}
		start += sh.topo.AcquireLinks(int(m.src), int(m.dst), start, int(m.bytes))
		arrive := start + float64(m.bytes)*p.G + p.L
		if m.flags&msgCross != 0 {
			sh.emitArrive(xkEagerArrive, arrive, ev.Arg0)
			return
		}
		sh.at(arrive, evEagerArrive, m.dst, m.src, ev.Arg0)

	case evEagerArrive:
		m := &sh.msgs[ev.Arg0]
		arrive := sh.eng.Now()
		w2 := sh.acquireBus(m.dst, arrive, m.bytes)
		sh.deliver(ev.Arg0, arrive+w2)

	case evChipDMA:
		// Table 1(b) eq (6) continued: DMA via the shared bus.
		m := &sh.msgs[ev.Arg0]
		start := sh.eng.Now()
		wait := sh.acquireBus(m.src, start, m.bytes)
		sh.resumeAt(&sh.ranks[m.src], start+wait)
		ready := start + wait + float64(m.bytes)*sh.par.Gdma
		sh.at(ready, evDeliver, m.dst, m.src, ev.Arg0)

	case evRTS:
		sh.msgs[ev.Arg0].flags |= msgRTS
		sh.maybeHandshake(ev.Arg0)

	case evCTS:
		m := &sh.msgs[ev.Arg0]
		p := &sh.par
		inject := sh.eng.Now() + p.H + p.O
		sh.at(inject, evRdvInject, m.src, m.dst, ev.Arg0)

	case evRdvInject:
		m := &sh.msgs[ev.Arg0]
		p := &sh.par
		inject := sh.eng.Now()
		wait := sh.acquireBus(m.src, inject, m.bytes)
		sh.resumeAt(&sh.ranks[m.src], inject+wait)
		start := inject + wait
		if sh.deferLinks() {
			sh.pushLinkOp(inject, start, ev.Arg0, true)
			return
		}
		start += sh.topo.AcquireLinks(int(m.src), int(m.dst), start, int(m.bytes))
		arrive := start + float64(m.bytes)*p.G + p.L
		if m.flags&msgCross != 0 {
			sh.emitArrive(xkRdvArrive, arrive, ev.Arg0)
			return
		}
		sh.at(arrive, evRdvArrive, m.dst, m.src, ev.Arg0)

	case evRdvArrive:
		m := &sh.msgs[ev.Arg0]
		arrive := sh.eng.Now()
		w2 := sh.acquireBus(m.dst, arrive, m.bytes)
		ready := arrive + w2
		m.flags |= msgReady
		m.readyAt = ready
		req := m.recv
		resume := ready + sh.par.O
		sh.resumeAt(&sh.ranks[sh.reqs[req].rank], resume)
		if sh.hists != nil {
			sh.hists.RecvWait.Observe(resume - sh.reqs[req].postAt)
			sh.hists.MsgLatency.Observe(ready - m.sendAt)
		}
		if sh.obsMsg {
			sh.obsMsgs = append(sh.obsMsgs, obs.MsgEvent{
				Send: m.sendAt, Ready: ready, Src: m.src, Dst: m.dst, Bytes: m.bytes, Rdv: true,
			})
		}
		sh.unlink(ev.Arg0)
		sh.freeReq(req)
		sh.freeMsg(ev.Arg0)

	default:
		panic(fmt.Sprintf("simmpi: unknown event kind %d", ev.Kind))
	}
}

func (sh *shard) execSend(r *rankState, peer, bytes int) {
	if peer == int(r.id) || peer < 0 || peer >= len(sh.ranks) {
		panic(fmt.Sprintf("simmpi: rank %d sends to invalid peer %d", r.id, peer))
	}
	if sh.xpart != nil && sh.xpart[peer] != sh.id {
		sh.execSendCross(r, peer, bytes)
		return
	}
	sh.sends++
	sh.bytes += uint64(bytes)
	ts := r.t
	p := &sh.par
	path := sh.topo.Path(int(r.id), peer)
	ci := sh.chanIndex(r.id, int32(peer))
	mi := sh.allocMsg()
	m := &sh.msgs[mi]
	m.src, m.dst, m.bytes = r.id, int32(peer), int32(bytes)
	m.sendAt = ts
	sh.enqueue(ci, mi)

	switch {
	case path == logp.OnChip && bytes <= logp.EagerThreshold:
		// Table 1(b) eq (5): ocopy + size×Gcopy + ocopy.
		sh.resumeAt(r, ts+p.Ocopy)
		ready := ts + p.Ocopy + float64(bytes)*p.Gcopy
		sh.at(ready, evDeliver, m.dst, m.src, mi)

	case path == logp.OnChip:
		// Table 1(b) eq (6): o + size×Gdma + ocopy, DMA via the shared bus.
		sh.at(ts+p.Ochip, evChipDMA, m.src, m.dst, mi)

	case bytes <= logp.EagerThreshold:
		// Table 1(a) eq (1): o + size×G + L + o; eager, sender buffers.
		sh.resumeAt(r, ts+p.O)
		sh.at(ts+p.O, evEagerInject, m.src, m.dst, mi)

	default:
		// Table 1(a) eq (2): rendezvous. The sender stays blocked until the
		// clear-to-send arrives and the data is injected.
		m.flags |= msgRdv
		sh.at(ts+p.O+p.L, evRTS, m.dst, m.src, mi)
	}
}

// maybeHandshake fires the rendezvous clear-to-send once both the RTS has
// arrived at the receiver and a matching receive has been posted. It is
// called at the virtual time of the later of those two events.
func (sh *shard) maybeHandshake(mi int32) {
	m := &sh.msgs[mi]
	if m.flags&(msgCTS|msgRTS) != msgRTS || m.recv == none {
		return
	}
	m.flags |= msgCTS
	p := &sh.par
	th := sh.eng.Now() // max(recv post, RTS arrival)
	if m.flags&msgCross != 0 {
		// Receiver-side proxy of a cross-shard rendezvous: the CTS executes
		// on the sender's shard. Routed through the barrier (parallel.go).
		sh.emitCTS(th+p.H+p.L, mi)
		return
	}
	sh.at(th+p.H+p.L, evCTS, m.src, m.dst, mi)
}

// deliver marks an eager or on-chip message's data available at the
// receiver and completes a matched waiting receive.
func (sh *shard) deliver(mi int32, ready float64) {
	m := &sh.msgs[mi]
	m.flags |= msgReady
	m.readyAt = ready
	if m.recv != none {
		sh.completeRecv(mi)
	}
}

// completeRecv finishes a matched, ready, non-rendezvous receive and
// returns the message and its request to their pools.
func (sh *shard) completeRecv(mi int32) {
	m := &sh.msgs[mi]
	ri := m.recv
	req := &sh.reqs[ri]
	start := m.readyAt
	if req.postAt > start {
		start = req.postAt
	}
	resume := start + sh.recvOverhead(m)
	sh.resumeAt(&sh.ranks[req.rank], resume)
	if sh.hists != nil {
		sh.hists.RecvWait.Observe(resume - req.postAt)
		sh.hists.MsgLatency.Observe(m.readyAt - m.sendAt)
	}
	if sh.obsMsg {
		sh.obsMsgs = append(sh.obsMsgs, obs.MsgEvent{
			Send: m.sendAt, Ready: m.readyAt, Src: m.src, Dst: m.dst, Bytes: m.bytes,
		})
	}
	sh.unlink(mi)
	sh.freeReq(ri)
	sh.freeMsg(mi)
}

// recvOverhead returns the receiver-side trailing processing time: o for
// off-node messages (Table 1(a) eqs (3), (4b)), ocopy for on-chip messages
// (Table 1(b) eqs (7), (8b)).
func (sh *shard) recvOverhead(m *message) float64 {
	if sh.topo.Path(int(m.src), int(m.dst)) == logp.OnChip {
		return sh.par.Ocopy
	}
	return sh.par.O
}

func (sh *shard) execRecv(r *rankState, peer int) {
	if peer == int(r.id) || peer < 0 || peer >= len(sh.ranks) {
		panic(fmt.Sprintf("simmpi: rank %d receives from invalid peer %d", r.id, peer))
	}
	sh.recvs++
	var ci int32
	if sh.xpart != nil && sh.xpart[peer] != sh.id {
		// Cross-shard sender: its messages are proxied into this shard's
		// channel table at window barriers (parallel.go), addressed through
		// the receiver's in-table rather than the sender's out-table.
		ci = sh.chanIndexIn(int32(peer), r.id)
	} else {
		ci = sh.chanIndex(int32(peer), r.id)
	}
	ri := sh.allocReq()
	sh.reqs[ri] = recvReq{rank: r.id, postAt: r.t}
	// Match the first message not already claimed by an earlier receive
	// (MPI non-overtaking ordering between a pair of ranks).
	mi := sh.channels[ci].head
	for mi != none && sh.msgs[mi].recv != none {
		mi = sh.msgs[mi].next
	}
	if mi == none {
		sh.channels[ci].recv = ri
		return
	}
	m := &sh.msgs[mi]
	m.recv = ri
	switch {
	case m.flags&msgRdv != 0:
		sh.maybeHandshake(mi)
	case m.flags&msgReady != 0:
		sh.completeRecv(mi)
	}
	// Otherwise the message is still in flight; deliver() completes it.
}
