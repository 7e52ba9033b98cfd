package des

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// popKey pops the next record off e's queue, frees its payload slot as Step
// does, and returns its full key.
func popKey(e *Engine) key {
	r, ok := e.q.pop()
	if !ok {
		panic("popKey on an empty queue")
	}
	k := key{tbits: r.tbits, ctx: e.q.pay[r.slot()].ctx, order: r.order}
	e.q.payFree = append(e.q.payFree, r.slot())
	return k
}

// fifoOf returns the FIFO a push with the given delay hashes to.
func fifoOf(delay float64) int {
	return int(math.Float64bits(delay) >> classShift * classHash >> (64 - fifoBits))
}

// heapPair feeds the same sequence-ordered records to the queue under test
// and to a reference queue that keeps every record in its heap.
type heapPair struct {
	t       *testing.T
	q, ref  queue
	now     float64
	seq     uint64
	toFIFOs int // pushes the queue under test kept out of its heap
	pushes  int
}

func (h *heapPair) push(tm float64) {
	h.seq++
	r := rec{tbits: math.Float64bits(tm), order: h.seq << slotBits}
	before := h.q.heap.n
	h.q.push(r, tm-h.now)
	h.ref.heapPush(r)
	h.pushes++
	if h.q.heap.n == before {
		h.toFIFOs++
	}
}

func (h *heapPair) pop() {
	h.t.Helper()
	if h.q.len() != h.ref.len() {
		h.t.Fatalf("len %d, heap has %d", h.q.len(), h.ref.len())
	}
	want := h.ref.heapPop()
	if tm, ok := h.q.topTime(); !ok || tm != want.time() {
		h.t.Fatalf("topTime = %v, %v; want %v", tm, ok, want.time())
	}
	if got, ok := h.q.pop(); !ok || got != want {
		h.t.Fatalf("pop = (%v,%d), want (%v,%d)", got.time(), got.order, want.time(), want.order)
	}
	h.now = want.time()
}

// repeated is a small set of delays pushed over and over, as a simulation's
// fixed overheads and latencies are.
var repeated = [...]float64{3.92, 0.5, 1.7, 7.25}

// TestQueuesMatchHeapOrder drives the delay FIFOs in front of the heap
// through randomized push/pop interleavings — repeated delays, clustered
// times, exact duplicates, far-future bursts — and demands the exact
// (time, order) sequence a plain heap of the same records produces.
func TestQueuesMatchHeapOrder(t *testing.T) {
	h := &heapPair{t: t}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20000; round++ {
		switch rng.Intn(6) {
		case 0, 1: // a repeated delay: FIFO traffic
			h.push(h.now + repeated[rng.Intn(len(repeated))])
		case 2: // near future
			h.push(h.now + rng.Float64()*3)
		case 3: // far-future burst
			for i := 0; i < rng.Intn(8); i++ {
				h.push(h.now + 50 + rng.Float64()*1000)
			}
		case 4: // exact-duplicate timestamps exercise the seq tiebreak
			tm := h.now + float64(rng.Intn(3))
			h.push(tm)
			h.push(tm)
		case 5:
			if h.ref.len() > 0 {
				h.pop()
			}
		}
	}
	for h.ref.len() > 0 {
		h.pop()
	}
	if h.toFIFOs == 0 || h.toFIFOs == h.pushes {
		t.Fatalf("%d of %d pushes went to the FIFOs; want some, not all", h.toFIFOs, h.pushes)
	}
	// Reuse after clear must behave like a fresh queue.
	h.q.clear()
	h.ref.clear()
	h.now = 0
	for i := 0; i < 500; i++ {
		h.push(h.now + repeated[i%len(repeated)]*float64(1+rng.Intn(2)))
	}
	for h.ref.len() > 0 {
		h.pop()
	}
}

// TestQueueHoldModel runs the classic hold model (pop one, push one a delay
// later) at a steady-state size of 3,000 pending events, with half the
// delays repeated and half exponential, against a plain heap.
func TestQueueHoldModel(t *testing.T) {
	h := &heapPair{t: t}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		h.push(rng.Float64() * 100)
	}
	for i := 0; i < 20000; i++ {
		h.pop()
		if i%2 == 0 {
			h.push(h.now + repeated[rng.Intn(len(repeated))])
		} else {
			h.push(h.now + rng.ExpFloat64())
		}
	}
	for h.ref.len() > 0 {
		h.pop()
	}
}

// TestConstantDelayBypassesHeap pins the FIFOs' purpose: a chain of events
// that each schedule a successor one fixed delay later never touches the
// heap, and the FIFO's ring grows only to the peak occupancy.
func TestConstantDelayBypassesHeap(t *testing.T) {
	const o, pending = 3.92, 1000
	var e Engine
	fired := 0
	e.SetHandler(func(ev Event) {
		if fired++; fired < 20000 {
			e.AtKind(e.Now()+o, 1, 0, 0)
		}
	})
	for i := 0; i < pending; i++ {
		e.AtKind(o, 1, 0, 0)
	}
	peak := e.q.inFIFOs
	e.Run()
	if e.q.heap.n != 0 || len(e.q.heap.buf) != 0 || peak != pending {
		t.Fatalf("heap used (%d pending, %d capacity); FIFO peak %d, want %d", e.q.heap.n, len(e.q.heap.buf), peak, pending)
	}
	f := &e.q.fifos[fifoOf(o)]
	if c := len(f.buf); c < pending || c > 2*pending {
		t.Fatalf("FIFO ring capacity %d for a peak of %d", c, pending)
	}
	// Reset keeps the ring, so a rerun allocates nothing for it.
	c := len(f.buf)
	e.Reset()
	fired = 0
	for i := 0; i < pending; i++ {
		e.AtKind(o, 1, 0, 0)
	}
	e.Run()
	if len(f.buf) != c {
		t.Fatalf("ring capacity %d after Reset and rerun, was %d", len(f.buf), c)
	}
}

// TestSameClassOutOfOrderGoesToHeap checks the sortedness guard: a record
// of a FIFO's class that orders before the FIFO's tail must not be
// appended, and a record of another class hashing to a claimed FIFO goes to
// the heap as well.
func TestSameClassOutOfOrderGoesToHeap(t *testing.T) {
	var e Engine
	const d = 3.3
	e.AtKind(d, 1, 0, 0)
	e.AtKind(d*(1+1e-12), 1, 1, 0) // same class, later: appended
	e.AtKind(d*(1-1e-12), 1, 2, 0) // same class, earlier than the tail: heap
	if e.q.heap.n != 1 || e.q.inFIFOs != 2 {
		t.Fatalf("heap %d, FIFOs %d; want 1, 2", e.q.heap.n, e.q.inFIFOs)
	}
	other := d
	for fifoOf(other) != fifoOf(d) || math.Float64bits(other)>>classShift == math.Float64bits(d)>>classShift {
		other += 0.37
	}
	e.AtKind(other, 1, 3, 0)
	if e.q.heap.n != 2 {
		t.Fatalf("colliding class kept out of the heap: heap %d", e.q.heap.n)
	}
	var got []int32
	e.SetHandler(func(ev Event) { got = append(got, ev.Arg0) })
	e.Run()
	if want := []int32{2, 0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// FuzzEventOrder decodes its input into one run of pushes and Steps under a
// single order and checks every fired event against a reference that keeps
// the pending set and picks its minimum by the documented order: (time,
// seq) for AtKind, (time, ctx, pri) for AtPriCtx. Delays come from a small
// alphabet so that FIFOs are claimed, classes collide on a FIFO, FIFOs that
// are never popped keep growing and timestamps tie.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 0, 4, 8, 12, 3, 16, 20, 3, 3, 24, 28, 0, 0, 3})
	f.Add([]byte{1, 0, 32, 64, 96, 4, 36, 3, 3, 68, 100, 132, 164, 196, 228, 3, 8, 3})
	f.Add([]byte{0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 3, 24, 24, 24, 24, 3})
	f.Add([]byte{1, 255, 254, 253, 252, 251, 250, 249, 248, 3, 3, 3, 3})
	// Delay 5 shares a FIFO with delay 3 but not its class; delay 6 shares
	// delay 3's class but not its value.
	delays := []float64{0, 0.5, 1, 3.92, 2, 0, 3.92 * (1 + 1e-12), 7.25}
	for d := 3.92 * 1.37; ; d *= 1.37 {
		if fifoOf(d) == fifoOf(3.92) && math.Float64bits(d)>>classShift != math.Float64bits(3.92)>>classShift {
			delays[5] = d
			break
		}
	}
	type ref struct {
		t, ctx float64
		hi     uint64 // seq or pri
		id     int32
	}
	less := func(a, b ref) bool {
		if a.t != b.t {
			return a.t < b.t
		}
		if a.ctx != b.ctx {
			return a.ctx < b.ctx
		}
		return a.hi < b.hi
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		canon := data[0]&1 == 1
		var e Engine
		var pending []ref
		var fired *Event
		e.SetHandler(func(ev Event) { fired = &ev })
		step := func() {
			fired = nil
			if !e.Step() {
				t.Fatalf("Step found nothing with %d pending", len(pending))
			}
			got := ref{t: fired.Time, hi: fired.Seq, id: fired.Arg0}
			if canon {
				got.ctx = e.CurCtx()
			}
			m := 0
			for i := range pending {
				if less(pending[i], pending[m]) {
					m = i
				}
			}
			want := pending[m]
			if got.t != want.t || got.ctx != want.ctx || got.hi != want.hi {
				t.Fatalf("fired %+v, want key of %+v", got, want)
			}
			// Equal canonical keys may fire in either order; drop the one
			// that fired, which must carry that key.
			for i := range pending {
				if pending[i].id == got.id {
					if pending[i].t != got.t || pending[i].ctx != got.ctx || pending[i].hi != got.hi {
						t.Fatalf("fired %+v, scheduled as %+v", got, pending[i])
					}
					pending = append(pending[:i], pending[i+1:]...)
					return
				}
			}
			t.Fatalf("fired unknown event %+v", got)
		}
		var seq uint64
		for i, b := range data[1:] {
			if b&3 == 3 {
				if len(pending) > 0 {
					step()
				}
				continue
			}
			now := e.Now()
			r := ref{t: now + delays[b>>2&7], id: int32(i)}
			if canon {
				r.ctx = now * float64(b>>5&1) // the clock or 0
				r.hi = uint64(b >> 6)
				e.AtPriCtx(r.t, r.ctx, r.hi, 1, r.id, 0)
			} else {
				seq++
				r.hi = seq
				e.AtKind(r.t, 1, r.id, 0)
			}
			pending = append(pending, r)
		}
		for len(pending) > 0 {
			step()
		}
		if e.Step() || e.Pending() != 0 {
			t.Fatalf("events left after the reference drained: %d", e.Pending())
		}
	})
}

var holdSink float64

// BenchmarkHold measures one pop plus one push of the hold model on the
// engine's queue at the pending sizes the simulator reaches (about 200 in
// the flagship campaign, about 2,200 in a 4K-rank Sweep3D run). Repeated
// delays come from a set of four, as fixed LogGP costs do, and take the
// FIFOs; random delays are exponential and take the heap.
func BenchmarkHold(b *testing.B) {
	for _, tc := range []struct {
		name  string
		delay func(*rand.Rand) float64
	}{
		{"repeated", func(r *rand.Rand) float64 { return repeated[r.Intn(len(repeated))] }},
		{"random", func(r *rand.Rand) float64 { return r.ExpFloat64() }},
	} {
		for _, canon := range []bool{false, true} {
			order := "seq"
			if canon {
				order = "canonical"
			}
			for _, n := range []int{256, 4096} {
				b.Run(tc.name+"/"+order+"/n="+strconv.Itoa(n), func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					incs := make([]float64, 4096)
					for i := range incs {
						incs[i] = tc.delay(rng)
					}
					var e Engine
					k := 0
					schedule := func(t float64) {
						k++
						if canon {
							e.AtPri(t, uint64(k&(1<<20-1)), 1, 0, 0)
						} else {
							e.AtKind(t, 1, 0, 0)
						}
					}
					e.SetHandler(func(ev Event) { schedule(ev.Time + incs[k&4095]) })
					for i := 0; i < n; i++ {
						schedule(incs[i&4095])
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.Step()
					}
					holdSink = e.Now()
				})
			}
		}
	}
}
