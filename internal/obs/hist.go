package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// This file holds the log-bucketed histogram the flight recorder uses for
// every duration metric. The design constraint is byte-determinism for any
// worker or shard count: a histogram therefore stores only integer bucket
// counts — no floating-point sums whose value would depend on accumulation
// order — and every derived statistic (quantiles, approximate mean) is
// computed from the counts in fixed bucket order.

// Bucket layout: bucket 0 collects zero (and any non-positive or NaN)
// observations; bucket i ≥ 1 covers the half-open range
// [2^(histMinExp+i−1), 2^(histMinExp+i)) µs. With histMinExp = −10 the
// first nonzero bucket starts below a nanosecond and the last reaches past
// 2^40 µs ≈ two weeks of simulated time, so no realistic duration under-
// or overflows; out-of-range values clamp to the edge buckets.
const (
	histMinExp  = -10
	histMaxExp  = 40
	histBuckets = histMaxExp - histMinExp + 1 // +1 for the zero bucket
)

// Hist is a deterministic log2-bucketed histogram of durations in µs.
// The zero value is an empty histogram ready for use.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
}

// Observe records one duration.
func (h *Hist) Observe(v float64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// bucketOf maps a duration to its bucket index.
func bucketOf(v float64) int {
	if !(v > 0) { // catches 0, negatives and NaN
		return 0
	}
	if math.IsInf(v, 1) { // Frexp(+Inf) reports exponent 0
		return histBuckets - 1
	}
	// Frexp returns v = f × 2^exp with f ∈ [0.5, 1), so exp is the
	// exclusive power-of-two upper bound of v's bucket.
	_, exp := math.Frexp(v)
	b := exp - histMinExp
	if b < 1 {
		return 1
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketRep returns the representative value reported for a bucket: zero
// for the zero bucket, else the geometric mean of the bucket bounds.
func bucketRep(b int) float64 {
	if b == 0 {
		return 0
	}
	return math.Ldexp(math.Sqrt2/2, histMinExp+b) // 2^(histMinExp+b−0.5)
}

// N returns the observation count.
func (h *Hist) N() uint64 { return h.n }

// Quantile returns the representative value of the bucket holding the
// q-quantile observation (0 ≤ q ≤ 1), or 0 for an empty histogram. The
// result is quantised to bucket representatives, so it is deterministic
// and merge-order independent.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += h.counts[b]
		if cum >= target {
			return bucketRep(b)
		}
	}
	return bucketRep(histBuckets - 1)
}

// Merge adds another histogram's counts into h.
func (h *Hist) Merge(o *Hist) {
	for b := range h.counts {
		h.counts[b] += o.counts[b]
	}
	h.n += o.n
}

// Reset empties the histogram.
func (h *Hist) Reset() { *h = Hist{} }

// Summary renders the headline statistics on one line, e.g.
// "n=412 p50=1.4µs p90=5.8µs p99=23µs".
func (h *Hist) Summary() string {
	if h.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%sµs p90=%sµs p99=%sµs",
		h.n, fmtG(h.Quantile(0.5)), fmtG(h.Quantile(0.9)), fmtG(h.Quantile(0.99)))
}

// fmtG formats a float with the shortest exact representation.
func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SimHists bundles the simulator's duration histograms. RecvWait,
// MsgLatency and LinkDelay depend only on run content and are
// byte-identical for every worker and shard count; WindowStall measures
// the sharded scheduler itself, so it is empty on serial runs and varies
// with the shard count (keep it out of shard-invariant artifacts).
type SimHists struct {
	// RecvWait is the time a rank spent blocked in each receive, from the
	// receive post to the resume (µs).
	RecvWait Hist
	// MsgLatency is the time from each send's start to its data being
	// ready at the receiver (µs).
	MsgLatency Hist
	// LinkDelay is the per-link queueing delay of every interconnect link
	// reservation (µs); empty on flat-wire runs.
	LinkDelay Hist
	// WindowStall is the duration of every (shard, window) pair that ran
	// no events — the lookahead scheduler's idle windows (µs).
	WindowStall Hist
}

// Merge adds another bundle's counts into h.
func (h *SimHists) Merge(o *SimHists) {
	h.RecvWait.Merge(&o.RecvWait)
	h.MsgLatency.Merge(&o.MsgLatency)
	h.LinkDelay.Merge(&o.LinkDelay)
	h.WindowStall.Merge(&o.WindowStall)
}

// Reset empties every histogram.
func (h *SimHists) Reset() { *h = SimHists{} }

// Write renders the bundle as an aligned text table.
func (h *SimHists) Write(w io.Writer) {
	fmt.Fprintf(w, "%-13s %s\n", "recv_wait", h.RecvWait.Summary())
	fmt.Fprintf(w, "%-13s %s\n", "msg_latency", h.MsgLatency.Summary())
	fmt.Fprintf(w, "%-13s %s\n", "link_delay", h.LinkDelay.Summary())
	fmt.Fprintf(w, "%-13s %s\n", "window_stall", h.WindowStall.Summary())
}
