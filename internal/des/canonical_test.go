package des

import (
	"math"
	"testing"
)

// collect installs a recording handler and returns the log slice pointer.
func collect(e *Engine) *[]Event {
	var log []Event
	e.SetHandler(func(ev Event) { log = append(log, ev) })
	return &log
}

func TestCanonicalOrderByTimeCtxPri(t *testing.T) {
	var e Engine
	log := collect(&e)
	// Scheduled deliberately out of canonical order: the engine must fire
	// by (time, ctx, pri), never by scheduling order.
	e.AtPriCtx(2, 1, 5, 1, 0, 0) // third: latest time
	e.AtPriCtx(1, 1, 9, 1, 1, 0) // second: same (t, ctx), larger pri
	e.AtPriCtx(1, 1, 2, 1, 2, 0) // first
	e.Run()
	if len(*log) != 3 {
		t.Fatalf("ran %d events", len(*log))
	}
	want := []int32{2, 1, 0}
	for i, ev := range *log {
		if ev.Arg0 != want[i] {
			t.Fatalf("order %v, want args %v", *log, want)
		}
	}
}

func TestCanonicalCtxBreaksTies(t *testing.T) {
	var e Engine
	log := collect(&e)
	// Same time, pri order opposing ctx order: ctx must dominate.
	e.AtPriCtx(5, 3, 1, 1, 0, 0) // later context, smaller pri
	e.AtPriCtx(5, 2, 9, 1, 1, 0) // earlier context wins despite larger pri
	e.Run()
	if (*log)[0].Arg0 != 1 || (*log)[1].Arg0 != 0 {
		t.Fatalf("ctx did not dominate pri: %v", *log)
	}
}

func TestAtPriUsesCurrentTimeAsContext(t *testing.T) {
	var e Engine
	var ctxs []float64
	e.SetHandler(func(ev Event) {
		ctxs = append(ctxs, e.CurCtx())
		if ev.Arg0 == 0 {
			// Scheduled from now=1: the child must carry ctx 1 and lose
			// the same-time tie against a pri-0 rival from context 2.
			e.AtPri(4, 7, 1, 10, 0)
		}
		if ev.Arg0 == 1 {
			e.AtPri(4, 0, 1, 11, 0)
		}
	})
	e.AtPriCtx(1, 0, 0, 1, 0, 0)
	e.AtPriCtx(2, 0, 1, 1, 1, 0)
	e.Run()
	// Execution: arg0@1 (ctx 0), arg1@2 (ctx 0), arg10@4 (ctx 1), arg11@4 (ctx 2).
	want := []float64{0, 0, 1, 2}
	if len(ctxs) != len(want) {
		t.Fatalf("ran %d events", len(ctxs))
	}
	for i, c := range ctxs {
		if c != want[i] {
			t.Fatalf("CurCtx sequence %v, want %v", ctxs, want)
		}
	}
}

// TestCanonicalHeapStress drives the queue through a large interleaved
// push/pop sequence under the canonical order, with clustered keys that tie
// on time, context and priority and delays that claim the FIFOs, and
// verifies pops come out in exact (time, ctx, order) order.
func TestCanonicalHeapStress(t *testing.T) {
	var e Engine
	rng := uint64(1)
	next := func(n uint64) uint64 { // xorshift, deterministic
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 3000; i++ {
			tt := float64(next(16)) // clustered: many exact ties
			ctx := float64(next(4))
			if ctx > tt {
				ctx = tt
			}
			// The clock stays at 0, so each time is its own delay class.
			e.push(tt, true, next(8), payload{kind: 1, ctx: math.Float64bits(ctx)})
		}
		var prev key
		drain := e.Pending()
		if round < 3 {
			drain /= 2 // leave half in place across rounds
		}
		for i := 0; i < drain; i++ {
			k := popKey(&e)
			if i > 0 && k.less(&prev) {
				t.Fatalf("pop out of order: %+v after %+v", k, prev)
			}
			prev = k
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left after drain", e.Pending())
	}
	e.AtPri(1, 1, 1, 0, 0)
	e.Reset()
	if e.Pending() != 0 {
		t.Fatal("Reset left events behind")
	}
}

func TestCanonicalMixedWithSequencePanics(t *testing.T) {
	var e Engine
	collect(&e)
	e.AtPri(1, 0, 1, 0, 0)
	e.AtKind(1, 1, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("mixed canonical and sequence-ordered events did not panic")
		}
	}()
	e.Run()
}

func TestAtPriCtxRejectsBadArguments(t *testing.T) {
	cases := []struct {
		name string
		call func(e *Engine)
	}{
		{"past time", func(e *Engine) { e.AtPriCtx(0.5, 0, 0, 1, 0, 0) }},
		{"ctx after t", func(e *Engine) { e.AtPriCtx(2, 3, 0, 1, 0, 0) }},
		{"negative ctx", func(e *Engine) { e.AtPriCtx(2, -1, 0, 1, 0, 0) }},
		{"NaN ctx", func(e *Engine) { e.AtPriCtx(2, math.NaN(), 0, 1, 0, 0) }},
		{"NaN time", func(e *Engine) { e.AtPriCtx(math.NaN(), 0, 0, 1, 0, 0) }},
		{"NaN time and ctx", func(e *Engine) { e.AtPriCtx(math.NaN(), math.NaN(), 0, 1, 0, 0) }},
		{"infinite time", func(e *Engine) { e.AtPriCtx(math.Inf(1), 0, 0, 1, 0, 0) }},
		{"infinite time and ctx", func(e *Engine) { e.AtPriCtx(math.Inf(1), math.Inf(1), 0, 1, 0, 0) }},
		{"negative infinite time", func(e *Engine) { e.AtPriCtx(math.Inf(-1), 0, 0, 1, 0, 0) }},
		{"oversized pri", func(e *Engine) { e.AtPriCtx(2, 0, maxPri+1, 1, 0, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e Engine
			collect(&e)
			e.AtPriCtx(1, 0, 0, 1, 0, 0)
			e.Run() // now = 1
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", tc.name)
				}
			}()
			tc.call(&e)
		})
	}
}

func TestCanonicalRunBoundsAndPending(t *testing.T) {
	var e Engine
	log := collect(&e)
	e.AtPri(1, 0, 1, 0, 0)
	e.AtPri(2, 0, 1, 1, 0)
	e.AtPri(3, 0, 1, 2, 0)
	if n := e.Pending(); n != 3 {
		t.Fatalf("Pending = %d, want 3", n)
	}
	if tt, ok := e.NextEventTime(); !ok || tt != 1 {
		t.Fatalf("NextEventTime = %v, %v", tt, ok)
	}
	e.RunBefore(2) // strictly-before: runs only t=1
	if len(*log) != 1 {
		t.Fatalf("RunBefore(2) ran %d events", len(*log))
	}
	e.RunBefore(3) // runs t=2 and leaves the clock there
	if len(*log) != 2 || e.Now() != 2 {
		t.Fatalf("RunBefore(3): %d events, now=%v", len(*log), e.Now())
	}
	e.Run()
	if len(*log) != 3 || e.Pending() != 0 {
		t.Fatalf("drain: %d events, %d pending", len(*log), e.Pending())
	}
}

func TestResetClearsCanonicalState(t *testing.T) {
	var e Engine
	collect(&e)
	e.AtPriCtx(1, 0, 0, 1, 0, 0)
	e.AtPriCtx(5, 2, 0, 1, 1, 0)
	e.RunBefore(2)
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 || e.CurCtx() != 0 {
		t.Fatalf("Reset left pending=%d now=%v ctx=%v", e.Pending(), e.Now(), e.CurCtx())
	}
	// The reset engine must accept either ordering mode afresh.
	log := collect(&e)
	e.AtKind(1, 1, 7, 0)
	e.Run()
	if len(*log) != 1 || (*log)[0].Arg0 != 7 {
		t.Fatalf("reset engine run: %v", *log)
	}
}
