package simmpi

import (
	"fmt"

	"repro/internal/des"
)

// This file holds the allocation-free bookkeeping of the simulator's hot
// path: free-list pools of message and receive-request records addressed
// by index, per-rank flat channel tables, and channel queues linked
// through the message records themselves.
//
// Messages and receive requests are referenced everywhere by int32 pool
// index (and carried through the event heap in Event.Arg0), never by
// pointer, so scheduling and matching perform zero heap allocations once
// the pools reach steady-state size. Pools are per-shard: a parallel run's
// shards never share a pool, and a message crossing shards exists as two
// records — the sender-shard original and a receiver-shard proxy — tied
// together by their proxy fields (parallel.go).

// none marks an empty index reference (no matched receive, no message).
const none int32 = -1

// message is a pooled in-flight message record, 48 bytes.
type message struct {
	readyAt  float64 // valid once msgReady is set
	sendAt   float64 // sender's op start; set unconditionally (no branch)
	src, dst int32
	bytes    int32
	ch       int32 // owning channel index
	recv     int32 // matched recvReq pool index, or none
	proxy    int32 // cross-shard: the peer shard's record for this message
	next     int32 // the next message queued on the same channel, or none
	flags    uint8 // msgRdv | msgReady | msgRTS | msgCTS | msgCross
}

// Message flag bits (message.flags).
const (
	msgRdv   uint8 = 1 << iota // rendezvous protocol
	msgReady                   // data fully available at the receiver
	msgRTS                     // rendezvous: request-to-send reached the receiver
	msgCTS                     // rendezvous: clear-to-send was generated
	msgCross                   // message crosses a shard boundary (parallel runs only)
)

// recvReq is a pooled posted-receive record. Completion always navigates
// message→request (message.recv), never the reverse, so the request does
// not point back at its message.
type recvReq struct {
	postAt float64
	rank   int32 // receiving rank
}

func (sh *shard) allocMsg() int32 {
	return des.AllocSlot(&sh.msgs, &sh.msgFree, message{recv: none, proxy: none})
}

func (sh *shard) freeMsg(i int32) { sh.msgFree = append(sh.msgFree, i) }

func (sh *shard) allocReq() int32 {
	return des.AllocSlot(&sh.reqs, &sh.reqFree, recvReq{})
}

func (sh *shard) freeReq(i int32) { sh.reqFree = append(sh.reqFree, i) }

// port is one entry of a rank's flat channel table: the peer rank, or ^src
// for an in-port from a sender on another shard, and the index of the
// channel in the owning shard's channel slice.
type port struct {
	peer int32
	ch   int32
}

// chanIndex returns the channel carrying src→dst traffic, creating it on
// first use. Wavefront ranks talk to at most four neighbours, so the
// per-rank table is a handful of entries and a linear scan beats any map:
// no hashing, no per-lookup allocation, one cache line.
func (sh *shard) chanIndex(src, dst int32) int32 {
	out := sh.ranks[src].out
	for i := range out {
		if out[i].peer == dst {
			return out[i].ch
		}
	}
	ci := sh.claimChannel()
	sh.ranks[src].out = append(out, port{peer: dst, ch: ci})
	return ci
}

// chanIndexIn is chanIndex for a cross-shard (src, dst) pair, resolved and
// created in the *receiver's* shard: the sender's table belongs to the
// sender's shard and its indices address that shard's channel slice, so
// cross traffic is keyed off an in-port in the receiver's own table, under
// the marked peer ^src. A marked peer is negative, so it never matches a
// send's peer. Only the receiving shard (during windows) and the barrier
// coordinator (between windows) touch the receiver's table.
func (sh *shard) chanIndexIn(src, dst int32) int32 {
	out, in := sh.ranks[dst].out, ^src
	for i := range out {
		if out[i].peer == in {
			return out[i].ch
		}
	}
	ci := sh.claimChannel()
	sh.ranks[dst].out = append(out, port{peer: in, ch: ci})
	return ci
}

// claimChannel returns a fresh, empty channel slot. Sim.ResetWithOptions
// truncates the channel slice, so the append reuses its backing array.
func (sh *shard) claimChannel() int32 {
	sh.channels = append(sh.channels, channel{head: none, tail: none, recv: none})
	return int32(len(sh.channels) - 1)
}

// channel is the per-(src, dst) FIFO of unmatched or in-flight messages in
// sent order, linked through message.next from head to tail, plus the one
// posted receive no message has matched yet. Receives block, so a rank
// never has two posted at once and one slot suffices.
type channel struct {
	head, tail int32 // message pool indices, or none when the queue is empty
	recv       int32 // posted unmatched recvReq pool index, or none
}

// enqueue appends message mi to channel ci's queue and matches it with the
// posted receive, if one is waiting. Local sends (execSend) and cross-shard
// proxies (applyMsg) both enter a channel here.
func (sh *shard) enqueue(ci, mi int32) {
	ch := &sh.channels[ci]
	m := &sh.msgs[mi]
	m.ch, m.next = ci, none
	if ch.tail == none {
		ch.head = mi
	} else {
		sh.msgs[ch.tail].next = mi
	}
	ch.tail = mi
	if ch.recv != none {
		m.recv, ch.recv = ch.recv, none
	}
}

// unlink removes a completed message from its channel's queue. Because a
// rank's receives are blocking, matches claim messages in FIFO order and
// a receive completes before its rank posts the next, so the completed
// message is always the queue head.
func (sh *shard) unlink(mi int32) {
	m := &sh.msgs[mi]
	ch := &sh.channels[m.ch]
	if ch.head != mi {
		panic(fmt.Sprintf("simmpi: completed message %d is not the head of its channel", mi))
	}
	ch.head = m.next
	if ch.head == none {
		ch.tail = none
	}
}
