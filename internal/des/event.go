package des

import "math"

// Kind identifies the dispatch target of an event. Packages built on the
// engine define their own kinds and receive them through the Handler
// installed with SetHandler.
type Kind uint16

// Event is a typed event record as delivered to a Handler. Scheduling one
// performs no heap allocation (beyond amortised growth of the engine's
// backing arrays) and no interface boxing.
//
// Time and Seq order execution: events fire in (Time, Seq) order, Seq being
// the global scheduling sequence number, which makes same-time events fire
// in the order they were scheduled and simulations bit-for-bit
// reproducible. Under the canonical order (AtPriCtx) Seq carries the
// event's priority instead.
//
// Kind, Arg0 and Arg1 are opaque to the engine: the simulation built on
// top encodes its state-machine transition in Kind and small operands
// (a rank index, a pooled-object index) in the args.
type Event struct {
	Time float64
	Seq  uint64
	Kind Kind
	Arg0 int32
	Arg1 int32
}

// Handler dispatches events. Exactly one handler serves an engine; it
// switches on ev.Kind.
type Handler func(ev Event)

// rec is the 16-byte queue record of a pending event, in the heap and in
// the delay FIFOs alike; the event's {kind, arg0, arg1, ctx} payload lives
// in a side pool addressed by the slot index packed into the low bits of
// the order word. Keeping the records this small makes every sift move a
// single 16-byte copy and every comparison two uint64 compares.
//
// tbits is math.Float64bits of the (non-negative, finite) timestamp; for
// t ≥ 0 the IEEE-754 bit pattern is monotone in t, so ordering by tbits as
// a uint64 equals ordering by time while avoiding float-compare NaN
// handling in the innermost loop. order is hi<<slotBits | slot, where hi is
// the sequence number (sequence order) or the caller's priority (canonical
// order). Records with equal tbits are ordered by the payload's scheduling
// context first — always 0 in sequence order — and then by the order word.
type rec struct {
	tbits uint64
	order uint64
}

const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	// maxSeq bounds the scheduling sequence number so seq<<slotBits cannot
	// overflow: about 1.1e12 events, far beyond any simulation here.
	maxSeq = 1<<(64-slotBits) - 1
)

func (r rec) time() float64 { return math.Float64frombits(r.tbits) }

func (r rec) slot() int32 { return int32(r.order & slotMask) }

// payload is the per-pending-event record in the queue's side pool. ctx is
// the bit pattern of the scheduling context's virtual time under the
// canonical order and 0 under the sequence order.
type payload struct {
	kind       Kind
	arg0, arg1 int32
	ctx        uint64
}
