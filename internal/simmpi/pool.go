package simmpi

import "repro/internal/des"

// This file holds the allocation-free bookkeeping of the simulator's hot
// path: free-list pools of message and receive-request records addressed
// by index, per-rank flat channel tables, and ring-buffer channel queues.
//
// Messages and receive requests are referenced everywhere by int32 pool
// index (and carried through the event heap in Event.Arg0), never by
// pointer, so scheduling and matching perform zero heap allocations once
// the pools and rings reach steady-state size. Pools are per-shard: a
// parallel run's shards never share a pool, and a message crossing shards
// exists as two records — the sender-shard original and a receiver-shard
// proxy — tied together by their proxy fields (parallel.go).

// none marks an empty index reference (no matched receive, no message).
const none int32 = -1

// message is a pooled in-flight message record.
type message struct {
	readyAt    float64 // valid once ready
	sendAt     float64 // sender's op start; set unconditionally (no branch)
	src, dst   int32
	bytes      int32
	ch         int32 // owning channel index (satellite: unlink takes no map lookup)
	recv       int32 // matched recvReq pool index, or none
	proxy      int32 // cross-shard: the peer shard's record for this message
	rendezvous bool
	ready      bool // data fully available at the receiver
	rtsArrived bool // rendezvous: request-to-send reached the receiver
	ctsIssued  bool // rendezvous: clear-to-send was generated
	cross      bool // message crosses a shard boundary (parallel runs only)
}

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

// port is one entry of a rank's flat channel table: the peer rank and the
// index of the channel in the owning shard's channel slice.
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
// created in the *receiver's* shard: the sender's out-table belongs to the
// sender's shard and its indices address that shard's channel slice, so
// cross traffic is keyed off a separate per-receiver in-table instead. Only
// the receiving shard (during windows) and the barrier coordinator (between
// windows) touch it.
func (sh *shard) chanIndexIn(src, dst int32) int32 {
	in := sh.ranks[dst].in
	for i := range in {
		if in[i].peer == src {
			return in[i].ch
		}
	}
	ci := sh.claimChannel()
	sh.ranks[dst].in = append(in, port{peer: src, ch: ci})
	return ci
}

// claimChannel returns a fresh channel slot, re-claiming one left behind by
// Sim.ResetWithOptions (keeping its ring buffers) when possible.
func (sh *shard) claimChannel() int32 {
	ci := int32(len(sh.channels))
	if int(ci) < cap(sh.channels) {
		sh.channels = sh.channels[:ci+1]
		sh.channels[ci].msgs.clear()
		sh.channels[ci].recvs.clear()
	} else {
		sh.channels = append(sh.channels, channel{})
	}
	return ci
}

// channel is the per-(src, dst) pair of FIFO queues: unmatched or
// in-flight messages in sent order, and posted unmatched receives in post
// order.
type channel struct {
	msgs  ring // message pool indices
	recvs ring // recvReq pool indices
}

// unlink removes a completed message from its channel's queue. Because a
// rank's receives are blocking, matches claim messages in FIFO order and
// at most one claimed message is in flight per channel, so the completed
// message is the queue head and removal is O(1); the ordered-remove
// fallback is defensive only.
func (sh *shard) unlink(ch *channel, mi int32) {
	if ch.msgs.n > 0 && ch.msgs.at(0) == mi {
		ch.msgs.popFront()
		return
	}
	ch.msgs.remove(mi)
}

// ring is a growable circular FIFO of pool indices. The backing array's
// length is always a power of two so position wrap-around is a mask.
type ring struct {
	buf  []int32
	head int32
	n    int32
}

// clear empties the ring, keeping its backing array.
func (q *ring) clear() { q.head, q.n = 0, 0 }

// at returns the k-th element from the front, 0 ≤ k < n.
func (q *ring) at(k int32) int32 {
	return q.buf[int(q.head+k)&(len(q.buf)-1)]
}

func (q *ring) set(k, v int32) {
	q.buf[int(q.head+k)&(len(q.buf)-1)] = v
}

func (q *ring) pushBack(v int32) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.buf[int(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *ring) popFront() int32 {
	v := q.buf[q.head]
	q.head = int32(int(q.head+1) & (len(q.buf) - 1))
	q.n--
	return v
}

// remove deletes the first occurrence of v, preserving FIFO order.
func (q *ring) remove(v int32) {
	for k := int32(0); k < q.n; k++ {
		if q.at(k) != v {
			continue
		}
		for j := k; j+1 < q.n; j++ {
			q.set(j, q.at(j+1))
		}
		q.n--
		return
	}
}

func (q *ring) grow() {
	capNew := len(q.buf) * 2
	if capNew == 0 {
		capNew = 4
	}
	buf := make([]int32, capNew)
	for k := int32(0); k < q.n; k++ {
		buf[k] = q.at(k)
	}
	q.buf = buf
	q.head = 0
}
