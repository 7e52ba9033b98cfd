package des

import (
	"reflect"
	"testing"
)

// The shard scheduler leans on bounded runs (RunBefore) with the engine
// reused across simulations. This pins the contract that a Reset
// after a *bounded* run — i.e. with events still pending and payload slots
// still occupied — yields an engine whose next run is bit-identical to a
// fresh engine's.

// traceRun schedules a fixed workload (several kinds, same-time ties,
// nested scheduling) and runs it to completion, returning the execution
// trace and final state.
func traceRun(e *Engine, trace *[]Event) (end float64, ran uint64) {
	e.SetHandler(func(ev Event) {
		*trace = append(*trace, ev)
		if ev.Kind == 2 && ev.Arg0 < 3 {
			e.AtKind(e.Now()+0.5, 2, ev.Arg0+1, ev.Arg1)
		}
	})
	e.AtKind(1, 2, 0, 7)
	e.AtKind(1, 3, 0, 0) // same-time tie: must fire after the kind-2 event
	e.AtKind(2, 99, 0, 0)
	e.AtKind(4, 4, 5, 5)
	return e.Run(), e.EventsRun()
}

func TestResetAfterBoundedRunIsBitIdentical(t *testing.T) {
	// Fresh engine, full run: the reference trace.
	var fresh Engine
	var want []Event
	wantEnd, wantRan := traceRun(&fresh, &want)

	// Second engine: run a *different* workload partway with RunBefore,
	// leaving pending events and a mid-run clock.
	var e Engine
	e.SetHandler(func(Event) {})
	e.AtKind(1, 2, 0, 0)
	e.AtKind(5, 2, 1, 1) // never reached before the bound
	e.AtKind(6, 4, 2, 2) // abandoned too
	e.RunBefore(3)
	if e.Now() != 1 || e.Pending() != 2 {
		t.Fatalf("bounded run state: now=%v pending=%d, want 1, 2", e.Now(), e.Pending())
	}

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.EventsRun() != 0 {
		t.Fatalf("reset engine not pristine: now=%v pending=%d ran=%d", e.Now(), e.Pending(), e.EventsRun())
	}

	var got []Event
	gotEnd, gotRan := traceRun(&e, &got)
	if gotEnd != wantEnd || gotRan != wantRan {
		t.Fatalf("re-run end=%v ran=%d, fresh end=%v ran=%d", gotEnd, gotRan, wantEnd, wantRan)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-run trace diverged from fresh engine:\n got %v\nwant %v", got, want)
	}
}

// TestResetAfterRunBeforeIsBitIdentical is the same guarantee for the
// strict-bound variant the shard scheduler uses.
func TestResetAfterRunBeforeIsBitIdentical(t *testing.T) {
	var fresh Engine
	var want []Event
	wantEnd, wantRan := traceRun(&fresh, &want)

	var e Engine
	e.SetHandler(func(Event) {})
	for i := int32(0); i < 8; i++ {
		e.AtKind(float64(i), 2, i, 0)
	}
	e.RunBefore(4.5)
	if e.EventsRun() != 5 {
		t.Fatalf("RunBefore executed %d events, want 5", e.EventsRun())
	}
	e.Reset()

	var got []Event
	gotEnd, gotRan := traceRun(&e, &got)
	if gotEnd != wantEnd || gotRan != wantRan || !reflect.DeepEqual(got, want) {
		t.Fatalf("re-run after RunBefore+Reset diverged (end=%v ran=%d)", gotEnd, gotRan)
	}
}
