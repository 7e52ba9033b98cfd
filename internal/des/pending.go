package des

import (
	"math"
	"unsafe"
)

// The pending-event queue: delay-class FIFOs in front of one 4-ary heap.
//
// Simulations schedule most events a constant delay after the current
// time — a LogGP overhead, a wire latency, a fixed compute block — and a
// run of events pushed with the same delay from a non-decreasing clock is
// already in time order. A push therefore hashes its delay class (the
// delay's bit pattern with the low classShift mantissa bits dropped) to
// one of numFIFOs FIFOs and appends the record there when the FIFO is
// empty, or holds the same class and its tail orders before the new
// record; every other record goes to the heap. Each FIFO is sorted by
// construction, so its head is its minimum, and a 16-leaf winner tree over
// the heads yields the earliest FIFO record in four comparisons per head
// change. A pop takes the earlier of that record and the heap top. Every
// record has a unique key, so the queue fires events in exactly the order
// a plain heap would.

const (
	fifoBits = 4
	// numFIFOs is the number of delay-class FIFOs in front of the heap.
	numFIFOs = 1 << fifoBits
	// classShift is the number of low mantissa bits dropped from a delay's
	// bit pattern, so delays that differ only by rounding (t − now of the
	// same increment at different clocks) share a class.
	classShift = 24
	// classHash spreads delay classes over the FIFOs (Fibonacci hashing).
	classHash = 0x9E3779B97F4A7C15
)

// key is a record's full sort key, held for each FIFO head so the winner
// tree compares without touching the payload pool.
type key struct{ tbits, ctx, order uint64 }

// noKey is the head key of an empty FIFO: it orders after every record.
var noKey = key{math.MaxUint64, math.MaxUint64, math.MaxUint64}

func (a *key) less(b *key) bool {
	if a.tbits != b.tbits {
		return a.tbits < b.tbits
	}
	if a.ctx != b.ctx {
		return a.ctx < b.ctx
	}
	return a.order < b.order
}

// queue holds an engine's pending events: the records in the FIFOs and the
// heap, and their payloads in an index-addressed pool. The fields every
// push and pop touch come first, the FIFO arrays last.
type queue struct {
	heap    eventHeap
	inFIFOs int  // records held in the FIFOs
	canon   bool // pending events use the canonical order (AtPriCtx)
	mixed   bool // events of both orders were pending at once
	ready   bool // heads and win are initialised; the zero value is not

	pay     []payload // pending-event payloads, indexed by record slot
	payFree []int32

	win   [numFIFOs]uint8 // winner tree: win[j] is the FIFO with the least head under node j; win[1] is the root
	heads [numFIFOs]key   // each FIFO's head key; noKey when empty
	fifos [numFIFOs]fifo
}

func (q *queue) len() int { return q.heap.n + q.inFIFOs }

// clear empties the queue, keeping every backing array.
func (q *queue) clear() {
	q.heap.n = 0
	for i := range q.fifos {
		q.fifos[i].start, q.fifos[i].n = 0, 0
	}
	q.inFIFOs = 0
	q.ready = false // the next FIFO claim rebuilds heads and win
	q.canon, q.mixed = false, false
	q.pay, q.payFree = q.pay[:0], q.payFree[:0]
}

// setOrder records the same-time order of the event being pushed. Events
// of both orders pending at once make the next Step panic.
func (q *queue) setOrder(canon bool) {
	if q.len() > 0 {
		q.mixed = true
	}
	q.canon = canon
}

// before reports whether record a fires before record b.
func (q *queue) before(a, b rec) bool {
	return a.tbits < b.tbits || a.tbits == b.tbits && q.tieBefore(a, b)
}

// tieBefore orders two records with equal timestamps: by scheduling
// context under the canonical order, then by order word.
func (q *queue) tieBefore(a, b rec) bool {
	if q.canon {
		if ca, cb := q.pay[a.slot()].ctx, q.pay[b.slot()].ctx; ca != cb {
			return ca < cb
		}
	}
	return a.order < b.order
}

func (q *queue) keyOf(r rec) key {
	k := key{tbits: r.tbits, order: r.order}
	if q.canon {
		k.ctx = q.pay[r.slot()].ctx
	}
	return k
}

// push inserts r, whose payload is already in the pool; delay is its
// distance from the engine's clock and picks the FIFO.
func (q *queue) push(r rec, delay float64) {
	class := math.Float64bits(delay) >> classShift
	i := int(class * classHash >> (64 - fifoBits))
	f := &q.fifos[i]
	switch {
	case f.n == 0:
		if !q.ready {
			q.initTree()
		}
		f.class = class
		f.append(r)
		q.heads[i] = q.keyOf(r)
		q.fix(i)
	case f.class == class && q.before(f.back(), r):
		f.append(r)
	default:
		q.heapPush(r)
		return
	}
	q.inFIFOs++
}

// next locates the earliest pending record: the head of FIFO w when inFIFO
// is true, otherwise the heap top. ok is false when nothing is pending.
func (q *queue) next() (w int, inFIFO, ok bool) {
	if q.inFIFOs == 0 {
		return 0, false, q.heap.n > 0
	}
	w = int(q.win[1])
	if q.heap.n == 0 || q.headFirst(&q.heads[w], q.heap.top()) {
		return w, true, true
	}
	return 0, false, true
}

// headFirst reports whether the FIFO head with key h fires before record r.
func (q *queue) headFirst(h *key, r rec) bool {
	if h.tbits != r.tbits {
		return h.tbits < r.tbits
	}
	k := q.keyOf(r)
	return h.less(&k)
}

// pop removes and returns the earliest pending record.
func (q *queue) pop() (rec, bool) {
	w, inFIFO, ok := q.next()
	if !ok {
		return rec{}, false
	}
	if !inFIFO {
		return q.heapPop(), true
	}
	f := &q.fifos[w]
	r := f.pop()
	q.inFIFOs--
	if f.n > 0 {
		q.heads[w] = q.keyOf(f.front())
	} else {
		q.heads[w] = noKey
	}
	q.fix(w)
	return r, true
}

// topTime returns the earliest pending timestamp.
func (q *queue) topTime() (float64, bool) {
	w, inFIFO, ok := q.next()
	switch {
	case !ok:
		return 0, false
	case inFIFO:
		return q.fifos[w].front().time(), true
	}
	return q.heap.top().time(), true
}

// initTree empties every head and points each tree node at the leftmost
// FIFO below it, a valid winner when all heads are equal.
func (q *queue) initTree() {
	for i := range q.heads {
		q.heads[i] = noKey
	}
	for j := numFIFOs - 1; j > 0; j-- {
		if c := 2 * j; c >= numFIFOs {
			q.win[j] = uint8(c - numFIFOs)
		} else {
			q.win[j] = q.win[c]
		}
	}
	q.ready = true
}

// fix replays the matches on the path from FIFO i's leaf to the root after
// its head changed.
func (q *queue) fix(i int) {
	w, o := i, i^1
	wt := q.heads[w].tbits // the running winner's timestamp
	for j := (numFIFOs + i) >> 1; ; j >>= 1 {
		// The match outcome is a coin flip for the branch predictor, so
		// timestamps decide by conditional moves; only ties compare on.
		// The rival's loads do not depend on earlier matches.
		ot := q.heads[o].tbits
		var first int
		if ot < wt {
			first = 1
		}
		if ot == wt && q.heads[o].less(&q.heads[w]) {
			first = 1
		}
		m := -first
		w ^= (w ^ o) & m
		wt ^= (wt ^ ot) & uint64(m)
		q.win[j] = uint8(w)
		if j == 1 {
			return
		}
		o = int(q.win[j^1])
	}
}

// fifo is a ring of records of one delay class, sorted by construction. Its
// capacity is a power of two that doubles only when the ring is full, so it
// is bounded by twice the peak occupancy.
type fifo struct {
	buf   []rec
	start int
	n     int
	class uint64 // delay class of the records held; meaningful when n > 0
}

func (f *fifo) front() rec { return f.buf[f.start] }

func (f *fifo) back() rec { return f.buf[(f.start+f.n-1)&(len(f.buf)-1)] }

func (f *fifo) append(r rec) {
	if f.n == len(f.buf) {
		buf := make([]rec, max(8, 2*len(f.buf)))
		k := copy(buf, f.buf[f.start:])
		copy(buf[k:], f.buf[:f.start])
		f.buf, f.start = buf, 0
	}
	f.buf[(f.start+f.n)&(len(f.buf)-1)] = r
	f.n++
}

func (f *fifo) pop() rec {
	r := f.buf[f.start]
	f.start = (f.start + 1) & (len(f.buf) - 1)
	f.n--
	return r
}

// eventHeap is the storage of a 4-ary min-heap of records; the queue sifts
// it (heapPush, heapPop) because ordering ties needs the payload pool.
// Being 4-ary halves the tree depth against a binary heap, and sifting
// moves a hole rather than swapping, one record copy per level instead of
// three.
//
// The logical element k lives at buf[base+k], with base chosen at
// allocation time so that every sibling group {4k+1 … 4k+4} starts on a
// 64-byte boundary: a sift-down then reads exactly one cache line per
// level instead of straddling two.
type eventHeap struct {
	buf  []rec
	base int // 0..3 padding slots before the root
	n    int // logical size
}

// alignBase returns the root offset that puts sibling groups on cache-line
// boundaries: (addr + 16·(base+1)) ≡ 0 (mod 64) makes logical index 1 — and
// hence every group start 4k+1 — line-aligned.
func alignBase(buf []rec) int {
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	for b := 0; b < 4; b++ {
		if (addr+16*uintptr(b+1))%64 == 0 {
			return b
		}
	}
	return 0 // unreachable: addr is 16-byte aligned
}

// grow reallocates with doubled capacity and a fresh alignment base.
func (h *eventHeap) grow() {
	buf := make([]rec, 2*(len(h.buf)+4))
	base := alignBase(buf)
	copy(buf[base:], h.buf[h.base:h.base+h.n])
	h.buf = buf
	h.base = base
}

// top returns the minimum record without removing it.
func (h *eventHeap) top() rec { return h.buf[h.base] }

// heapPush inserts r, restoring the heap property by sifting a hole up.
func (q *queue) heapPush(r rec) {
	h := &q.heap
	if h.base+h.n == len(h.buf) {
		h.grow()
	}
	s := h.buf[h.base:]
	i := h.n
	h.n++
	for i > 0 {
		p := (i - 1) / 4
		if !q.before(r, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = r
}

// heapPop removes and returns the minimum record. The heap must not be
// empty.
func (q *queue) heapPop() rec {
	h := &q.heap
	s := h.buf[h.base:]
	n := h.n - 1
	h.n = n
	top := s[0]
	last := s[n]
	if n == 0 {
		return top
	}
	canon := q.canon
	i := 0
	for {
		c := 4*i + 1
		var b rec // the earliest child
		var best int
		if c+3 < n {
			// Full sibling group: branch-free tree minimum on (tbits,
			// order). The compares on near-random keys mispredict badly as
			// branches; SETcc and mask merges keep the pipeline full. That
			// key is the whole key except when the canonical order has to
			// break a tie of the least timestamp by context.
			g := s[c : c+4 : c+4]
			ta, oa, ia := minPair(g[0].tbits, g[0].order, c, g[1].tbits, g[1].order, c+1)
			tb, ob, ib := minPair(g[2].tbits, g[2].order, c+2, g[3].tbits, g[3].order, c+3)
			b.tbits, b.order, best = minPair(ta, oa, ia, tb, ob, ib)
			if canon && tiedAt(g, b.tbits) {
				best = q.minOf(c, c+4)
				b = s[best]
			}
		} else if c < n {
			best = q.minOf(c, n) // trailing partial group
			b = s[best]
		} else {
			break
		}
		if !q.before(b, last) {
			break
		}
		s[i] = b
		i = best
	}
	s[i] = last
	return top
}

// minOf returns the index of the earliest record in s[lo:hi].
func (q *queue) minOf(lo, hi int) int {
	s := q.heap.buf[q.heap.base:]
	best := lo
	for j := lo + 1; j < hi; j++ {
		if q.before(s[j], s[best]) {
			best = j
		}
	}
	return best
}

// tiedAt reports whether more than one record of g has timestamp bits t.
func tiedAt(g []rec, t uint64) bool {
	var k int
	for _, r := range g {
		if r.tbits == t {
			k++
		}
	}
	return k > 1
}

// minPair returns the smaller of two (tbits, order, index) keys without
// branches: the comparison builds an all-ones/all-zero mask via SETcc and
// the result is merged with XOR-AND.
func minPair(t0, o0 uint64, i0 int, t1, o1 uint64, i1 int) (uint64, uint64, int) {
	var lt, eq, lo uint64
	if t1 < t0 {
		lt = 1
	}
	if t1 == t0 {
		eq = 1
	}
	if o1 < o0 {
		lo = 1
	}
	m := -(lt | (eq & lo)) // all ones iff (t1,o1) < (t0,o0)
	return t0 ^ ((t0 ^ t1) & m), o0 ^ ((o0 ^ o1) & m), i0 ^ ((i0 ^ i1) & int(m))
}
