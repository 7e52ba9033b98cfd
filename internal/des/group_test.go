package des

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

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
	g.Run(func() { barriers++ })
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
	g.Run(func() {
		if rounds < 3 {
			// Cross-shard delivery: schedule into shard 1 from the barrier.
			tm := float64(10 + rounds)
			f1.at(tm, func() { got = append(got, tm) })
		}
		rounds++
	})
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
	g.Run(func() {})
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
	g.Run(func() {
		if !injected {
			injected = true
			f.at(5, func() { n.Add(1) })
		}
	})
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
		g.Run(func() {})
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
// which the barrier schedules 1.25 later. Inside a window each shard
// touches only its own log and outbox, so the logs must not depend on how
// the shards are spread over goroutines.
type ring struct {
	fs   []*funcs
	logs [][]float64
	out  [][]float64 // per-shard arrival times for the next shard
	hook func(shard int)
}

func newRing(k int) *ring {
	r := &ring{logs: make([][]float64, k), out: make([][]float64, k)}
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

func (r *ring) barrier() {
	for i, out := range r.out {
		next := (i + 1) % len(r.fs)
		for _, t := range out {
			r.fs[next].at(t, r.hop(next, 2))
		}
		r.out[i] = out[:0]
	}
}

func (r *ring) run(obs WindowObserver) *Group {
	engines := make([]*Engine, len(r.fs))
	for i, f := range r.fs {
		engines[i] = f.e
	}
	g := NewGroup(engines, 1)
	g.SetObserver(obs)
	g.Run(r.barrier)
	return g
}

// TestGroupLayoutsMatch runs one ring at several GOMAXPROCS values: all
// shards inline on the caller (1), fewer participants than shards with
// uneven ranges (2 and 3), and more processors than shards (8). Logs,
// windows, stalls and window observations must not change.
func TestGroupLayoutsMatch(t *testing.T) {
	const k = 5
	var want [][]float64
	var wantWindows, wantStalls uint64
	for _, procs := range []int{1, 2, 3, 8} {
		withProcs(t, procs)
		r := newRing(k)
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
				t.Errorf("GOMAXPROCS=%d: observer saw %d events on shard %d, which logged %d", procs, n, i, len(r.logs[i]))
			}
		}
		if observed != g.Windows() {
			t.Errorf("GOMAXPROCS=%d: observer saw %d windows, group ran %d", procs, observed, g.Windows())
		}
		if want == nil {
			want, wantWindows, wantStalls = r.logs, g.Windows(), g.Stalls()
			if wantStalls == 0 {
				t.Fatal("ring never stalled a shard; the stall count is not exercised")
			}
			continue
		}
		if !reflect.DeepEqual(r.logs, want) {
			t.Errorf("GOMAXPROCS=%d: logs differ from the inline run:\n got %v\nwant %v", procs, r.logs, want)
		}
		if g.Windows() != wantWindows || g.Stalls() != wantStalls {
			t.Errorf("GOMAXPROCS=%d: windows/stalls %d/%d, inline %d/%d",
				procs, g.Windows(), g.Stalls(), wantWindows, wantStalls)
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
	g.Run(func() {
		if slept < 4 {
			slept++
			time.Sleep(5 * time.Millisecond)
		}
		r.barrier()
	})
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

// TestGroupShardPanicReachesCaller: a panic in any shard — on the caller
// inline, or on a helper — is recoverable by Run's caller, and no helper
// outlives it. A helper's panic comes back as an error that names the
// shard and wraps the original value.
func TestGroupShardPanicReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		procs, shard int
		helper       bool
	}{
		{procs: 1, shard: 1},
		{procs: 2, shard: 0},
		{procs: 2, shard: 1, helper: true},
		{procs: 3, shard: 2, helper: true},
	} {
		withProcs(t, tc.procs)
		before := runtime.NumGoroutine()
		r := newRing(3)
		r.hook = func(shard int) {
			if shard == tc.shard && len(r.logs[shard]) == 4 {
				panic(errShard)
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
			t.Errorf("GOMAXPROCS=%d shard %d: recovered %v, want %v", tc.procs, tc.shard, v, errShard)
			continue
		}
		named := strings.Contains(err.Error(), fmt.Sprintf("shard %d panicked", tc.shard))
		if tc.helper != named || tc.helper != (err != errShard) {
			t.Errorf("GOMAXPROCS=%d shard %d: recovered %q; want the shard named only for a helper's panic",
				tc.procs, tc.shard, err)
		}
	}
}

// TestGroupRunsAgain: a second Run of the same Group, after an event was
// scheduled from outside, runs it with fresh helpers.
func TestGroupRunsAgain(t *testing.T) {
	withProcs(t, 2)
	r := newRing(2)
	g := NewGroup([]*Engine{r.fs[0].e, r.fs[1].e}, 1)
	g.Run(r.barrier)
	windows, logged := g.Windows(), len(r.logs[1])
	r.fs[1].at(r.fs[1].e.Now()+5, r.hop(1, 0))
	g.Run(r.barrier)
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
