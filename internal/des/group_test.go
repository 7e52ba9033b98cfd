package des

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
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
