// Package des provides a minimal deterministic discrete-event simulation
// engine: a virtual clock, a queue of timestamped pending events, and a
// first-come-first-served resource used to model shared hardware such as a
// node's memory bus (paper Section 4.3).
//
// # Event model
//
// The hot path is allocation-free: events are typed value records
// ({Time, Seq, Kind, Arg0, Arg1}, see Event) dispatched through a single
// Handler installed with SetHandler — no closures, no interface boxing. A
// simulation encodes each state-machine transition as a Kind and small
// integer operands (a rank index, a pooled-object index) in the args.
//
// Events scheduled for the same virtual time fire in the order they were
// scheduled, which makes simulations bit-for-bit reproducible. The
// canonical order of AtPriCtx replaces scheduling order by a content-derived
// one for the sharded scheduler (Group).
//
// # Pending-event queue
//
// Both orders share one queue of 16-byte (time, order) records (pending.go):
// a cache-aligned 4-ary heap with 16 FIFOs in front of it, one per delay
// class. Most events are scheduled a repeated delay after the current time,
// and such a run of events is already sorted, so it bypasses the heap's
// O(log n) sift. The queue reads an event's scheduling context from its
// payload only when two timestamps are equal.
package des

import (
	"fmt"
	"math"
)

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     float64
	curCtx  float64 // scheduling-context time of the executing canonical event
	seq     uint64
	ran     uint64
	handler Handler
	q       queue
}

// AllocSlot pops an index off a free list (resetting that record) or
// appends a fresh one. It is the one free-list allocator behind every
// index-addressed pool in the engine and the simulations built on it.
func AllocSlot[T any](items *[]T, free *[]int32, reset T) int32 {
	if n := len(*free); n > 0 {
		i := (*free)[n-1]
		*free = (*free)[:n-1]
		(*items)[i] = reset
		return i
	}
	*items = append(*items, reset)
	return int32(len(*items) - 1)
}

// push allocates a payload slot and queues the event's record. The high
// part of its order word is a fresh sequence number under the sequence
// order, or pri under the canonical order (canon).
func (e *Engine) push(t float64, canon bool, pri uint64, p payload) {
	q := &e.q
	if canon != q.canon {
		q.setOrder(canon)
	}
	hi := pri
	if !canon {
		e.seq++
		if e.seq > maxSeq {
			panic("des: event sequence number overflow")
		}
		hi = e.seq
	}
	slot := AllocSlot(&q.pay, &q.payFree, p)
	if slot > slotMask {
		panic("des: too many pending events")
	}
	t += 0.0 // normalise -0 so the bit-pattern ordering matches float order
	q.push(rec{tbits: math.Float64bits(t), order: hi<<slotBits | uint64(slot)}, t-e.now)
}

// checkTime panics unless t is finite and not before the clock.
func (e *Engine) checkTime(t float64) {
	if !(t >= e.now && t <= math.MaxFloat64) {
		panic(badTime(t, e.now))
	}
}

func badTime(t, now float64) string {
	if t < now {
		return fmt.Sprintf("des: scheduling into the past (t=%v, now=%v)", t, now)
	}
	return fmt.Sprintf("des: non-finite event time %v", t)
}

// Reset returns the engine to its initial state — clock at zero, no
// pending events, fresh sequence numbering — while retaining the installed
// handler and the capacity of the queue and payload pools. A reset engine
// behaves bit-identically to a newly constructed one, so a long-lived
// engine can serve back-to-back simulations without reallocating.
func (e *Engine) Reset() {
	e.now, e.curCtx, e.seq, e.ran = 0, 0, 0, 0
	e.q.clear()
}

// Now returns the current virtual time in microseconds.
func (e *Engine) Now() float64 { return e.now }

// EventsRun returns the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending returns the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return e.q.len() }

// SetHandler installs the event dispatcher. It must be set before the
// first event fires.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// AtKind schedules an event at absolute virtual time t, which must be
// finite and not in the past. It is delivered to the Handler with the
// given kind and args.
func (e *Engine) AtKind(t float64, k Kind, arg0, arg1 int32) {
	e.checkTime(t)
	e.push(t, false, 0, payload{kind: k, arg0: arg0, arg1: arg1})
}

// maxPri bounds the explicit same-time priority of AtPriCtx so
// pri<<slotBits cannot collide with the slot index bits.
const maxPri = 1<<(64-slotBits) - 1

// AtPriCtx schedules a typed event under the canonical order: events fire
// in (time, ctx, pri) order instead of (time, sequence) order. t must be
// finite and not in the past. ctx is the virtual time of the scheduling
// context — the timestamp of the event whose handler is scheduling this
// one — and pri is a content-derived priority of at most 40 bits (maxPri)
// breaking the remaining ties.
//
// The canonical order exists for the conservative parallel scheduler
// (Group). Sequence numbers are a global scheduling-order counter that a
// barrier-injected cross-shard event cannot reproduce; (ctx, pri) carries
// the same information piecewise: sequence order always refines
// context-time order (an engine executes events in time order, so earlier
// contexts schedule first), and a priority derived purely from event
// content is identical however the event reached the engine. A simulation
// whose same-context same-time ties are broken consistently by pri
// therefore fires events in exactly the same order on one engine or many.
//
// Canonical and sequence-ordered events must not be mixed in one run: an
// engine with pending events from both APIs panics on Step.
func (e *Engine) AtPriCtx(t, ctx float64, pri uint64, k Kind, arg0, arg1 int32) {
	e.checkTime(t)
	if ctx < 0 || ctx > t || math.IsNaN(ctx) {
		panic(fmt.Sprintf("des: scheduling context %v outside [0, %v]", ctx, t))
	}
	if pri > maxPri {
		panic(fmt.Sprintf("des: event priority %#x exceeds %d bits", pri, 64-slotBits))
	}
	ctx += 0.0 // normalise -0 so the bit-pattern ordering matches float order
	e.push(t, true, pri, payload{kind: k, arg0: arg0, arg1: arg1, ctx: math.Float64bits(ctx)})
}

// AtPri is AtPriCtx with the current event as the scheduling context — the
// form used for all inline scheduling; only barrier-injected events need an
// explicit ctx.
func (e *Engine) AtPri(t float64, pri uint64, k Kind, arg0, arg1 int32) {
	e.AtPriCtx(t, e.now, pri, k, arg0, arg1)
}

// CurCtx returns the scheduling-context time of the canonical event being
// executed — the ctx it was scheduled with. Handlers that defer part of an
// event's effect to a later replay (the parallel link replay) use it to
// reconstruct the event's position in the canonical order.
func (e *Engine) CurCtx() float64 { return e.curCtx }

// Step executes the next event, if any, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	q := &e.q
	if q.mixed {
		panic("des: canonical (AtPriCtx) and sequence-ordered (AtKind) events pending in one engine")
	}
	r, ok := q.pop()
	if !ok {
		return false
	}
	slot := r.slot()
	p := q.pay[slot]
	q.payFree = append(q.payFree, slot)
	e.now = r.time()
	e.curCtx = math.Float64frombits(p.ctx)
	e.ran++
	if e.handler == nil {
		panic(fmt.Sprintf("des: event kind %d with no handler installed", p.kind))
	}
	e.handler(Event{Time: e.now, Seq: r.order >> slotBits, Kind: p.kind, Arg0: p.arg0, Arg1: p.arg1})
	return true
}

// Run executes events until none remain and returns the final virtual time.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// RunBefore executes events with timestamps strictly less than t and leaves
// the clock at the last executed event. It never advances the clock
// artificially, so events delivered later for times in [now, t) remain
// schedulable — the property the sharded scheduler (Group) relies on when
// it injects cross-shard events at window barriers.
func (e *Engine) RunBefore(t float64) {
	for {
		next, ok := e.q.topTime()
		if !ok || next >= t {
			break
		}
		e.Step()
	}
}

// NextEventTime returns the timestamp of the earliest pending event, or
// ok == false when no events are pending.
func (e *Engine) NextEventTime() (t float64, ok bool) {
	return e.q.topTime()
}

// Resource models a single FCFS server (e.g. a node's shared memory bus).
// Requests occupy the resource for a fixed duration in arrival order; a
// request arriving while the resource is busy is queued and experiences
// waiting time.
//
// A Resource keeps only what must be per resource: when it frees up and
// its total busy and waiting time, 24 bytes. It does not count requests.
// Acquire returns each request's wait, so the caller that owns a set of
// resources tallies how many requests it made and how many queued
// (topo.Interconnect for links, each simmpi shard for buses); that keeps
// the count exact and its owner single-threaded.
type Resource struct {
	freeAt float64
	busy   float64
	waits  float64
}

// Acquire reserves the resource for duration dur starting no earlier than
// now. It returns the waiting time the request experienced before service
// began (zero when the resource was idle).
func (r *Resource) Acquire(now, dur float64) (wait float64) {
	if dur < 0 || now < 0 {
		panic(fmt.Sprintf("des: invalid resource acquisition now=%v dur=%v", now, dur))
	}
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	wait = start - now
	r.freeAt = start + dur
	r.busy += dur
	r.waits += wait
	return wait
}

// Stats returns the total busy time and the total waiting time.
func (r *Resource) Stats() (busy, waited float64) {
	return r.busy, r.waits
}
