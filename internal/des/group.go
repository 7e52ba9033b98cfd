package des

// Conservative parallel discrete-event scheduling (classic CMB-style
// windowing). A Group advances K independent Engines — the shards —
// concurrently inside a global virtual-time window [T, T+lookahead). The
// lookahead is the simulation's minimum cross-shard latency: no event
// executed inside the window can schedule an event into another shard
// earlier than the window's end, so the shards cannot causally interact
// within a window and are free to run in parallel.
//
// Cross-shard effects are not applied by the shards themselves. Each shard
// records them during the window (in simulation-owned buffers) and the
// barrier callback — which runs single-threaded between windows, while no
// shard executes — merges them in a deterministic order. Every other
// participant waits while the barrier runs, so it should hold only the work
// that needs the merged order. It may leave the rest of an effect to the
// one shard the effect lands in: the participant that owns that shard
// finishes it at the start of the next window (the apply callback), in
// parallel with the other participants, and the barrier returns the
// earliest time such a deferred effect schedules an event at, so that the
// window opens no later. Determinism therefore does not depend on
// goroutine scheduling or on how shards are spread over goroutines: each
// shard fires its events in its engine's own order (the canonical (time,
// ctx, pri) order for sharded simulations), boundary effects are ordered
// by the barrier's merge, and each shard's deferred effects by the list the
// barrier left for it.
//
// The Group owns only the windowing machinery: the participants that run
// the shards, the window hand-off, and progress/stall statistics. What a
// "boundary effect" is — messages, resource reservations, collective
// completions — belongs to the simulation built on top (internal/simmpi).
//
// Participants. Run spreads the K shards over n = min(K, GOMAXPROCS)
// participants: the goroutine that called Run (the coordinator) plus n−1
// helper goroutines, each owning a fixed contiguous range of shards for the
// whole run. The coordinator runs the barrier; then, inside each window,
// every participant applies and runs its own range. With n = 1 the
// coordinator runs every shard itself and starts no goroutine. Windows are
// short — 4,096-rank LU on a torus opens 17,215 windows of about 300
// events each — so a hand-off must cost much less than waking a parked
// goroutine: the waiting side polls an atomic counter and parks on a
// channel only when the other side is far slower than a typical window or
// barrier (spinPolls).

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// A waiting participant polls its hand-off counter up to spinPolls times,
// calling runtime.Gosched once every yieldEvery polls, then parks on a
// channel. Gosched puts the goroutine on the global run queue, so when both
// participants yield at once each can resume on the other's processor and
// run its shards out of a cold cache. On 2-shard LU-4K (2-vCPU Xeon VM,
// 17,215 windows), a Gosched after every poll moved the coordinator to
// another CPU in 1,400–1,700 windows per run, and runs took 1.32–1.48 s.
// A Gosched every 64 polls moved it in about 40 windows; with one every
// 16, 64 or 256 polls runs took 1.02–1.30 s, in no consistent order.
// spinPolls polls took 0.9–3.2 ms there, against a mean barrier of about
// 5 µs, so a participant parks only when the other side stalls.
const (
	spinPolls  = 1 << 18
	yieldEvery = 64
)

// Group runs a set of shard engines through lookahead windows.
type Group struct {
	engines   []*Engine
	lookahead float64

	// Per-window scratch, reused across windows.
	windowEnd float64
	quit      atomic.Bool // set before helpers are released: they exit
	ran       []uint64    // per-shard EventsRun at window start, for stall stats

	windows uint64 // windows executed
	stalls  uint64 // (shard, window) pairs where the shard ran no events

	obs WindowObserver
}

// WindowObserver receives one observation per (shard, window) pair after
// the window closes: the window's number (starting at 1) and bounds, the
// events the shard executed inside it, and the shard's event-heap depth at
// the closing barrier. The Group invokes it single-threaded, while no shard
// executes, so implementations need no synchronisation.
type WindowObserver func(window uint64, shard int, start, end float64, events uint64, pending int)

// NewGroup prepares a windowed run over the given shard engines. The
// lookahead must be positive: it is the minimum virtual-time distance any
// cross-shard interaction travels, and with a zero lookahead windows cannot
// make progress (callers should fall back to serial execution instead).
func NewGroup(engines []*Engine, lookahead float64) *Group {
	if len(engines) == 0 {
		panic("des: group needs at least one engine")
	}
	if lookahead <= 0 || math.IsNaN(lookahead) || math.IsInf(lookahead, 0) {
		panic(fmt.Sprintf("des: invalid lookahead %v", lookahead))
	}
	return &Group{
		engines:   engines,
		lookahead: lookahead,
		ran:       make([]uint64, len(engines)),
	}
}

// Windows returns the number of windows executed so far.
func (g *Group) Windows() uint64 { return g.windows }

// Stalls returns the number of (shard, window) pairs in which the shard
// executed no events — the barrier-stall count that diagnoses load
// imbalance across shards.
func (g *Group) Stalls() uint64 { return g.stalls }

// SetObserver installs a per-window observer; pass nil to disable. The
// nil path costs one branch per (shard, window), nothing per event.
func (g *Group) SetObserver(fn WindowObserver) { g.obs = fn }

// Run drives the shards to quiescence. Each iteration first invokes
// barrier — single-threaded, while no shard executes — which applies
// buffered cross-shard effects by scheduling events into any of the group's
// engines, or defers an effect to the shard it lands in and returns the
// earliest virtual time a deferred effect schedules an event at (+Inf when
// it deferred nothing). Run then opens the next window at the earlier of
// that time and the earliest pending event across all shards. Inside the
// window each participant, for each shard i it owns, calls apply(i) —
// which schedules shard i's deferred effects into engine i and touches no
// other shard — and then lets the shard execute its events with timestamps
// inside [T, T+lookahead), the shards of different participants
// concurrently. The run ends when the barrier defers nothing and no engine
// has pending events.
//
// The window must open at the deferred time when that is the earlier one:
// a deferred event before every pending event would otherwise be scheduled
// into a window that opened after it. apply runs exactly once per shard in
// every window, also for a shard with nothing deferred.
//
// The callbacks must not touch shard state outside their turn, and shards
// must not touch each other's state inside a window; the Group supplies
// the happens-before edges (atomic hand-off counters) that make the
// alternation race-free.
//
// A panic in a shard or in apply reaches the goroutine that called Run. A
// shard the coordinator runs panics there directly; a helper recovers the
// panic, and Run re-raises it as an error naming the shard and carrying the
// helper's stack. Either way every helper has exited when the panic leaves
// Run, as on a normal return.
func (g *Group) Run(barrier func() float64, apply func(shard int)) {
	n := min(len(g.engines), runtime.GOMAXPROCS(0))
	g.quit.Store(false)
	var w uint64 // windows opened by this Run: the hand-off sequence
	helpers := make([]helper, n-1)
	var exited sync.WaitGroup
	for j := range helpers {
		h := &helpers[j]
		h.lo, h.hi = (j+1)*len(g.engines)/n, (j+2)*len(g.engines)/n
		h.window.wake = make(chan struct{}, 1)
		h.done.wake = make(chan struct{}, 1)
		exited.Add(1)
		go h.run(g, apply, &exited)
	}
	defer func() {
		// Release every helper, also when a panic is leaving Run. A panic
		// inside a window can leave helpers running it, so quit is atomic.
		g.quit.Store(true)
		for j := range helpers {
			helpers[j].window.set(w + 1)
		}
		exited.Wait()
	}()
	own := len(g.engines) / n

	for {
		earliest := barrier()
		for _, eng := range g.engines {
			if t, ok := eng.NextEventTime(); ok && t < earliest {
				earliest = t
			}
		}
		if math.IsInf(earliest, 1) {
			return
		}
		g.windowEnd = earliest + g.lookahead
		g.windows++
		w++
		for i, eng := range g.engines {
			g.ran[i] = eng.EventsRun()
		}
		for j := range helpers {
			helpers[j].window.set(w)
		}
		for i, eng := range g.engines[:own] {
			apply(i)
			eng.RunBefore(g.windowEnd)
		}
		for j := range helpers {
			h := &helpers[j]
			h.done.await(w)
			if h.fault != nil {
				panic(h.fault)
			}
		}
		for i, eng := range g.engines {
			ran := eng.EventsRun() - g.ran[i]
			if ran == 0 {
				g.stalls++
			}
			if g.obs != nil {
				g.obs(g.windows, i, earliest, g.windowEnd, ran, eng.Pending())
			}
		}
	}
}

// helper is one helper goroutine's share of a run: its shard range and the
// two hand-off counters, window (advanced by the coordinator when it opens
// a window) and done (advanced by the helper when it has run the window).
type helper struct {
	lo, hi int
	window handoff
	done   handoff
	fault  *shardPanic // set before done is advanced to the faulting window
}

// run applies and executes the helper's shards in every window until Run
// releases it.
func (h *helper) run(g *Group, apply func(int), exited *sync.WaitGroup) {
	defer exited.Done()
	var w uint64
	cur := h.lo
	defer func() {
		if v := recover(); v != nil {
			h.fault = &shardPanic{shard: cur, value: v, stack: debug.Stack()}
			h.done.set(w)
		}
	}()
	for w = 1; ; w++ {
		h.window.await(w)
		if g.quit.Load() {
			return
		}
		for cur = h.lo; cur < h.hi; cur++ {
			apply(cur)
			g.engines[cur].RunBefore(g.windowEnd)
		}
		h.done.set(w)
	}
}

// handoff is a counter one side advances and the other waits on. The
// waiting side polls, then parks: it raises parked, re-checks the counter
// and blocks on wake. The advancing side publishes the counter before it
// looks at parked, so either the waiter's re-check sees the new value or
// the advancing side sees parked and sends the wake-up; none is lost. A
// wake-up is not proof of progress, though: a set delayed between its two
// steps can find parked raised by a later await, so the waiter checks the
// counter again after every wake-up.
type handoff struct {
	n      atomic.Uint64
	parked atomic.Bool
	wake   chan struct{}
}

// set publishes v and wakes the waiter if it has parked.
func (h *handoff) set(v uint64) {
	h.n.Store(v)
	if h.parked.Load() && h.parked.CompareAndSwap(true, false) {
		h.wake <- struct{}{}
	}
}

// await returns once the counter has reached v.
func (h *handoff) await(v uint64) {
	for i := 1; i <= spinPolls; i++ {
		if h.n.Load() >= v {
			return
		}
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	for {
		h.parked.Store(true)
		if h.n.Load() >= v {
			if !h.parked.CompareAndSwap(true, false) {
				<-h.wake // set saw parked first: take its wake-up
			}
			return
		}
		<-h.wake
	}
}

// shardPanic is the value Run panics with when a shard panicked on a
// helper goroutine: the shard's index, the original panic value, and the
// helper's stack at the panic.
type shardPanic struct {
	shard int
	value any
	stack []byte
}

func (p *shardPanic) Error() string {
	return fmt.Sprintf("des: shard %d panicked: %v\n\n%s", p.shard, p.value, p.stack)
}

// Unwrap returns the original panic value if it is an error.
func (p *shardPanic) Unwrap() error {
	err, _ := p.value.(error)
	return err
}
