package des

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// noDefer is a barrier that applies and defers nothing.
func noDefer() float64 { return math.Inf(1) }

// noApply is an apply callback for runs that defer nothing.
func noApply(int) {}

func TestRunBeforeStopsStrictlyBeforeBound(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	var hits []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		f.after(d, func() { hits = append(hits, d) })
	}
	e.RunBefore(3)
	if !reflect.DeepEqual(hits, []float64{1, 2}) {
		t.Fatalf("RunBefore(3) executed %v, want [1 2]", hits)
	}
	if e.Now() != 2 {
		t.Fatalf("clock advanced to %v, want 2 (last executed event)", e.Now())
	}
	// An event delivered late for a time inside the already-swept window
	// must still be schedulable: RunBefore left the clock at 2.
	f.after(0.5, func() { hits = append(hits, 2.5) })
	e.RunBefore(3)
	if !reflect.DeepEqual(hits, []float64{1, 2, 2.5}) {
		t.Fatalf("late event not executed: %v", hits)
	}
}

func TestNextEventTime(t *testing.T) {
	var e Engine
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reports a pending event")
	}
	e.SetHandler(func(Event) {})
	e.AtKind(7, 1, 0, 0)
	e.AtKind(3, 1, 0, 0)
	if tm, ok := e.NextEventTime(); !ok || tm != 3 {
		t.Fatalf("NextEventTime = %v, %v; want 3, true", tm, ok)
	}
	e.Run()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("drained engine reports a pending event")
	}
}

// TestGroupWindowIsolation checks the core conservative-PDES invariant the
// Group provides: shards only observe each other's effects at barriers, and
// every event executes at the same virtual time it would serially.
func TestGroupWindowIsolation(t *testing.T) {
	const shards = 4
	engines := make([]*Engine, shards)
	var executed [shards][]float64
	for i := range engines {
		engines[i] = &Engine{}
		i := i
		eng := engines[i]
		f := newFuncs(eng)
		var schedule func(d float64)
		schedule = func(d float64) {
			f.after(d, func() {
				executed[i] = append(executed[i], eng.Now())
				if eng.Now() < 10 {
					schedule(1) // chain: events at 1, 2, ..., 10
				}
			})
		}
		schedule(1)
	}
	g := NewGroup(engines, 0.5)
	barriers := 0
	g.Run(func() float64 { barriers++; return math.Inf(1) }, noApply)
	for i := range executed {
		want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		if !reflect.DeepEqual(executed[i], want) {
			t.Fatalf("shard %d executed %v, want %v", i, executed[i], want)
		}
	}
	if g.Windows() == 0 || barriers != int(g.Windows())+1 {
		t.Fatalf("windows=%d barriers=%d, want barriers = windows+1", g.Windows(), barriers)
	}
}

// TestGroupBarrierDelivery checks that a barrier callback can inject events
// into any shard and the run continues until quiescence.
func TestGroupBarrierDelivery(t *testing.T) {
	engines := []*Engine{{}, {}}
	f0, f1 := newFuncs(engines[0]), newFuncs(engines[1])
	var got []float64
	f0.at(1, func() {})
	rounds := 0
	g := NewGroup(engines, 1)
	g.Run(func() float64 {
		if rounds < 3 {
			// Cross-shard delivery: schedule into shard 1 from the barrier.
			tm := float64(10 + rounds)
			f1.at(tm, func() { got = append(got, tm) })
		}
		rounds++
		return math.Inf(1)
	}, noApply)
	if !reflect.DeepEqual(got, []float64{10, 11, 12}) {
		t.Fatalf("barrier-delivered events: %v", got)
	}
}

// TestGroupStallAccounting: a shard with no events in a window is a stall.
func TestGroupStallAccounting(t *testing.T) {
	engines := []*Engine{{}, {}}
	engines[0].SetHandler(func(Event) {})
	engines[0].AtKind(1, 1, 0, 0)
	engines[0].AtKind(2, 1, 0, 0)
	// Shard 1 is empty throughout: every window stalls it.
	g := NewGroup(engines, 0.5)
	g.Run(noDefer, noApply)
	if g.Stalls() != g.Windows() {
		t.Fatalf("stalls=%d windows=%d; empty shard should stall every window", g.Stalls(), g.Windows())
	}
}

// TestGroupSingleShard: the K=1 path still drains barrier deliveries.
func TestGroupSingleShard(t *testing.T) {
	engines := []*Engine{{}}
	f := newFuncs(engines[0])
	var n atomic.Int64
	f.at(1, func() { n.Add(1) })
	injected := false
	g := NewGroup(engines, 2)
	g.Run(func() float64 {
		if !injected {
			injected = true
			f.at(5, func() { n.Add(1) })
		}
		return math.Inf(1)
	}, noApply)
	if n.Load() != 2 {
		t.Fatalf("executed %d events, want 2", n.Load())
	}
}

func TestNewGroupRejectsBadLookahead(t *testing.T) {
	for _, la := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lookahead %v accepted", la)
				}
			}()
			NewGroup([]*Engine{{}}, la)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty engine list accepted")
			}
		}()
		NewGroup(nil, 1)
	}()
}

// TestGroupMatchesSerialExecution runs the same randomized workload through
// one engine and through a sharded group (with all cross-"rank" effects
// confined to shards), asserting identical execution traces per shard.
func TestGroupMatchesSerialExecution(t *testing.T) {
	const shards = 3
	type hit struct {
		shard int
		tm    float64
	}
	run := func(k int) []hit {
		var trace []hit
		engines := make([]*Engine, k)
		fs := make([]*funcs, k)
		for i := range engines {
			engines[i] = &Engine{}
			fs[i] = newFuncs(engines[i])
		}
		// Same event set regardless of k: event j belongs to logical shard
		// j%shards, hosted on engine (j%shards)%k.
		rng := rand.New(rand.NewSource(42))
		for j := 0; j < 200; j++ {
			sh := j % shards
			tm := rng.Float64() * 50
			fs[sh%k].at(tm, func() { trace = append(trace, hit{sh, tm}) })
		}
		if k == 1 {
			engines[0].Run()
			return trace
		}
		// Serialise trace appends per barrier epoch: within a window each
		// engine appends to its own slice, merged at barriers in shard order.
		per := make([][]hit, k)
		engines2 := make([]*Engine, k)
		fs2 := make([]*funcs, k)
		for i := range engines2 {
			engines2[i] = &Engine{}
			fs2[i] = newFuncs(engines2[i])
		}
		rng = rand.New(rand.NewSource(42))
		for j := 0; j < 200; j++ {
			sh := j % shards
			tm := rng.Float64() * 50
			i := sh % k
			fs2[i].at(tm, func() { per[i] = append(per[i], hit{sh, tm}) })
		}
		g := NewGroup(engines2, 0.1+rng.Float64())
		g.Run(noDefer, noApply)
		var merged []hit
		for i := range per {
			merged = append(merged, per[i]...)
		}
		return merged
	}
	serial := run(1)
	parallel := run(shards)
	// Same multiset of (shard, time) hits; per-shard subsequences in time order.
	if len(serial) != len(parallel) {
		t.Fatalf("serial ran %d events, parallel %d", len(serial), len(parallel))
	}
	perShard := map[int][]float64{}
	for _, h := range parallel {
		perShard[h.shard] = append(perShard[h.shard], h.tm)
	}
	for sh, times := range perShard {
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				t.Fatalf("shard %d executed out of order: %v", sh, times)
			}
		}
	}
}

// withProcs sets GOMAXPROCS for the rest of the test, which fixes how many
// participants Group.Run uses.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// awaitGoroutines waits until at most n goroutines exist: a helper that
// has signalled its exit may still be unwinding when Run returns.
func awaitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), n)
		}
		runtime.Gosched()
	}
}

// ring is a k-shard token ring driven through a Group with lookahead 1.
// Shard i starts at 1.5·i, so early windows stall the later shards. Every
// event logs its time in its shard's log; a token hops along its shard
// with gap 0.3, and every third hop also sends a token to the next shard,
// which arrives 1.25 later. The barrier schedules that token into the next
// shard itself, or, with deferred set, leaves it in the next shard's inbox
// for the shard's apply. Inside a window each shard touches only its own
// log, outbox and inbox, so the logs must not depend on how the shards are
// spread over goroutines, nor on which of the two delivers the tokens.
type ring struct {
	fs        []*funcs
	logs      [][]float64
	out       [][]float64 // per-shard arrival times for the next shard
	in        [][]float64 // deferred: per-shard arrivals left for apply
	deferred  bool
	hook      func(shard int) // called by every event
	applyHook func(shard int) // called by every apply
}

func newRing(k int) *ring {
	r := &ring{logs: make([][]float64, k), out: make([][]float64, k), in: make([][]float64, k)}
	for i := 0; i < k; i++ {
		r.fs = append(r.fs, newFuncs(&Engine{}))
		r.fs[i].at(float64(i)*1.5, r.hop(i, 12))
	}
	return r
}

func (r *ring) hop(i, left int) func() {
	return func() {
		now := r.fs[i].e.Now()
		r.logs[i] = append(r.logs[i], now)
		if r.hook != nil {
			r.hook(i)
		}
		if left == 0 {
			return
		}
		r.fs[i].after(0.3, r.hop(i, left-1))
		if left%3 == 0 {
			r.out[i] = append(r.out[i], now+1.25)
		}
	}
}

func (r *ring) barrier() float64 {
	earliest := math.Inf(1)
	for i, out := range r.out {
		next := (i + 1) % len(r.fs)
		for _, t := range out {
			if r.deferred {
				r.in[next] = append(r.in[next], t)
				earliest = math.Min(earliest, t)
				continue
			}
			r.fs[next].at(t, r.hop(next, 2))
		}
		r.out[i] = out[:0]
	}
	return earliest
}

func (r *ring) apply(i int) {
	if r.applyHook != nil {
		r.applyHook(i)
	}
	for _, t := range r.in[i] {
		r.fs[i].at(t, r.hop(i, 2))
	}
	r.in[i] = r.in[i][:0]
}

func (r *ring) run(obs WindowObserver) *Group {
	engines := make([]*Engine, len(r.fs))
	for i, f := range r.fs {
		engines[i] = f.e
	}
	g := NewGroup(engines, 1)
	g.SetObserver(obs)
	g.Run(r.barrier, r.apply)
	return g
}

// TestGroupLayoutsMatch runs one ring at several GOMAXPROCS values: all
// shards inline on the caller (1), fewer participants than shards with
// uneven ranges (2 and 3), and more processors than shards (8), with the
// tokens delivered by the barrier and deferred to apply. Logs, windows,
// stalls and window observations must not change.
func TestGroupLayoutsMatch(t *testing.T) {
	const k = 5
	var want [][]float64
	var wantWindows, wantStalls uint64
	for _, deferred := range []bool{false, true} {
		for _, procs := range []int{1, 2, 3, 8} {
			withProcs(t, procs)
			r := newRing(k)
			r.deferred = deferred
			events := make([]uint64, k)
			var observed uint64
			g := r.run(func(window uint64, shard int, start, end float64, ran uint64, pending int) {
				if end != start+1 {
					t.Errorf("window %d spans [%v, %v), want length 1", window, start, end)
				}
				events[shard] += ran
				observed = window
			})
			for i, n := range events {
				if n != uint64(len(r.logs[i])) {
					t.Errorf("GOMAXPROCS=%d deferred=%v: observer saw %d events on shard %d, which logged %d",
						procs, deferred, n, i, len(r.logs[i]))
				}
			}
			if observed != g.Windows() {
				t.Errorf("GOMAXPROCS=%d deferred=%v: observer saw %d windows, group ran %d", procs, deferred, observed, g.Windows())
			}
			if want == nil {
				want, wantWindows, wantStalls = r.logs, g.Windows(), g.Stalls()
				if wantStalls == 0 {
					t.Fatal("ring never stalled a shard; the stall count is not exercised")
				}
				continue
			}
			if !reflect.DeepEqual(r.logs, want) {
				t.Errorf("GOMAXPROCS=%d deferred=%v: logs differ from the inline run:\n got %v\nwant %v", procs, deferred, r.logs, want)
			}
			if g.Windows() != wantWindows || g.Stalls() != wantStalls {
				t.Errorf("GOMAXPROCS=%d deferred=%v: windows/stalls %d/%d, inline %d/%d",
					procs, deferred, g.Windows(), g.Stalls(), wantWindows, wantStalls)
			}
		}
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// TestGroupApplyContract: in every window apply runs exactly once per
// shard, on the goroutine that runs the shard, and before any of the
// shard's events in that window.
func TestGroupApplyContract(t *testing.T) {
	const k = 5
	for _, procs := range []int{1, 2, 3} {
		withProcs(t, procs)
		r := newRing(k)
		r.deferred = true
		caller := goid()
		applied := make([]int, k)      // applies so far; the observer checks it
		appliedNow := make([]bool, k)  // applied in the open window
		applier := make([]string, k)   // goroutine of the last apply
		misplaced := make([]string, k) // a breach of the contract, per shard
		r.applyHook = func(i int) {
			applied[i]++
			appliedNow[i] = true
			applier[i] = goid()
			if onCaller := i < k/procs; onCaller != (applier[i] == caller) {
				misplaced[i] = fmt.Sprintf("apply(%d) on the caller: %v, want %v", i, !onCaller, onCaller)
			}
		}
		r.hook = func(i int) {
			switch {
			case !appliedNow[i]:
				misplaced[i] = fmt.Sprintf("shard %d ran an event before its apply", i)
			case applier[i] != goid():
				misplaced[i] = fmt.Sprintf("shard %d ran on another goroutine than its apply", i)
			}
		}
		g := r.run(func(window uint64, shard int, _, _ float64, _ uint64, _ int) {
			if uint64(applied[shard]) != window {
				t.Errorf("GOMAXPROCS=%d: shard %d applied %d times in %d windows", procs, shard, applied[shard], window)
			}
			appliedNow[shard] = false
		})
		if g.Windows() == 0 {
			t.Fatal("ring ran no window")
		}
		for _, m := range misplaced {
			if m != "" {
				t.Errorf("GOMAXPROCS=%d: %s", procs, m)
			}
		}
	}
}

// TestGroupDeferredTimeOpensWindow: shard 0's only event sends an event
// at 2.5 to shard 1, which the barrier defers to shard 1's apply. The next
// window must open at 2.5, before shard 1's pending event at 10 when it has
// one, and the run must not end while the deferred event is all that is
// left.
func TestGroupDeferredTimeOpensWindow(t *testing.T) {
	for _, pending := range []bool{true, false} {
		engines := []*Engine{{}, {}}
		f0, f1 := newFuncs(engines[0]), newFuncs(engines[1])
		var got []float64
		var out, in []float64 // shard 0's outbox, shard 1's inbox
		f0.at(1, func() { out = append(out, 2.5) })
		if pending {
			f1.at(10, func() { got = append(got, 10) })
		}
		var starts []float64
		g := NewGroup(engines, 1)
		g.SetObserver(func(_ uint64, shard int, start, _ float64, _ uint64, _ int) {
			if shard == 0 {
				starts = append(starts, start)
			}
		})
		g.Run(func() float64 {
			in, out = append(in, out...), out[:0]
			if len(in) == 0 {
				return math.Inf(1)
			}
			return in[0]
		}, func(i int) {
			if i == 1 {
				for _, tm := range in {
					f1.at(tm, func() { got = append(got, engines[1].Now()) })
				}
				in = in[:0]
			}
		})
		want, wantStarts := []float64{2.5}, []float64{1, 2.5}
		if pending {
			want, wantStarts = []float64{2.5, 10}, []float64{1, 2.5, 10}
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(starts, wantStarts) {
			t.Errorf("pending=%v: ran %v in windows opening at %v; want %v in windows at %v",
				pending, got, starts, want, wantStarts)
		}
	}
}

// TestGroupInlineStartsNoGoroutine: with one processor the caller runs
// every shard itself.
func TestGroupInlineStartsNoGoroutine(t *testing.T) {
	withProcs(t, 1)
	before := runtime.NumGoroutine()
	r := newRing(3)
	r.hook = func(int) {
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines inside a window, %d before Run", n, before)
		}
	}
	r.run(nil)
}

// TestGroupParksAndWakes forces both waits past the poll budget: a barrier
// that sleeps parks the helper on its next window, and a helper shard that
// sleeps parks the coordinator on its done counter. Neither wake-up may be
// lost, and the run must match one without sleeps.
func TestGroupParksAndWakes(t *testing.T) {
	withProcs(t, 2)
	want := newRing(2)
	want.run(nil)

	r := newRing(2)
	slept := 0
	r.hook = func(shard int) {
		if shard == 1 && len(r.logs[1])%5 == 1 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	engines := []*Engine{r.fs[0].e, r.fs[1].e}
	g := NewGroup(engines, 1)
	g.Run(func() float64 {
		if slept < 4 {
			slept++
			time.Sleep(5 * time.Millisecond)
		}
		return r.barrier()
	}, r.apply)
	if !reflect.DeepEqual(r.logs, want.logs) {
		t.Fatalf("logs with parked waits differ:\n got %v\nwant %v", r.logs, want.logs)
	}
}

// TestGroupRunLeavesNoGoroutine: every helper has exited once Run returns.
func TestGroupRunLeavesNoGoroutine(t *testing.T) {
	withProcs(t, 4)
	before := runtime.NumGoroutine()
	newRing(4).run(nil)
	awaitGoroutines(t, before)
}

var errShard = errors.New("shard handler failed")

// TestGroupShardPanicReachesCaller: a panic in any shard or in its apply —
// on the caller inline, or on a helper — is recoverable by Run's caller,
// and no helper outlives it. A helper's panic comes back as an error that
// names the shard and wraps the original value.
func TestGroupShardPanicReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		procs, shard int
		helper       bool
		inApply      bool
	}{
		{procs: 1, shard: 1},
		{procs: 2, shard: 0},
		{procs: 2, shard: 1, helper: true},
		{procs: 3, shard: 2, helper: true},
		{procs: 2, shard: 0, inApply: true},
		{procs: 2, shard: 1, helper: true, inApply: true},
		{procs: 3, shard: 2, helper: true, inApply: true},
	} {
		withProcs(t, tc.procs)
		before := runtime.NumGoroutine()
		r := newRing(3)
		if tc.inApply {
			applies := 0
			r.applyHook = func(shard int) {
				if shard == tc.shard {
					if applies++; applies == 3 {
						panic(errShard)
					}
				}
			}
		} else {
			r.hook = func(shard int) {
				if shard == tc.shard && len(r.logs[shard]) == 4 {
					panic(errShard)
				}
			}
		}
		v := func() (v any) {
			defer func() { v = recover() }()
			r.run(nil)
			return nil
		}()
		awaitGoroutines(t, before)
		err, ok := v.(error)
		if !ok || !errors.Is(err, errShard) {
			t.Errorf("GOMAXPROCS=%d shard %d apply=%v: recovered %v, want %v", tc.procs, tc.shard, tc.inApply, v, errShard)
			continue
		}
		named := strings.Contains(err.Error(), fmt.Sprintf("shard %d panicked", tc.shard))
		if tc.helper != named || tc.helper != (err != errShard) {
			t.Errorf("GOMAXPROCS=%d shard %d apply=%v: recovered %q; want the shard named only for a helper's panic",
				tc.procs, tc.shard, tc.inApply, err)
		}
	}
}

// TestGroupRunsAgain: a second Run of the same Group, after an event was
// scheduled from outside, runs it with fresh helpers.
func TestGroupRunsAgain(t *testing.T) {
	withProcs(t, 2)
	r := newRing(2)
	g := NewGroup([]*Engine{r.fs[0].e, r.fs[1].e}, 1)
	g.Run(r.barrier, r.apply)
	windows, logged := g.Windows(), len(r.logs[1])
	r.fs[1].at(r.fs[1].e.Now()+5, r.hop(1, 0))
	g.Run(r.barrier, r.apply)
	if len(r.logs[1]) != logged+1 || g.Windows() != windows+1 {
		t.Fatalf("second Run logged %d events in %d windows, want 1 in 1",
			len(r.logs[1])-logged, g.Windows()-windows)
	}
}

// TestHandoffIgnoresStaleWakeUp: a set of an earlier value that finds the
// waiter parked — the tail of a set delayed past the waiter's whole poll
// budget — wakes the waiter, which must go back to sleep until the counter
// really reaches its target.
func TestHandoffIgnoresStaleWakeUp(t *testing.T) {
	h := handoff{wake: make(chan struct{}, 1)}
	h.set(1)
	returned := make(chan struct{})
	go func() {
		h.await(2)
		close(returned)
	}()
	for !h.parked.Load() {
		runtime.Gosched()
	}
	h.set(1)
	// The stale set cleared parked; the waiter raises it again once it has
	// taken the wake-up and re-checked the counter.
	for !h.parked.Load() {
		select {
		case <-returned:
			t.Fatal("await(2) returned with the counter at 1")
		default:
			runtime.Gosched()
		}
	}
	h.set(2)
	<-returned
}
