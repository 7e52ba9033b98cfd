// Package stats provides the small statistical utilities used by the
// parameter-fitting, validation and campaign machinery: least-squares
// linear fits, relative-error summaries, simple aggregates, a streaming
// single-pass aggregator and percentile estimation.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// LinearFit returns the least-squares line y = a + b·x through the points.
// It panics if fewer than two points are given or all x are identical.
func LinearFit(xs, ys []float64) (a, b float64) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: mismatched lengths %d vs %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		panic("stats: need at least two points for a linear fit")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: degenerate x values in linear fit")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}

// RelErr returns |predicted − actual| / |actual|; it returns the absolute
// error if actual is zero.
func RelErr(predicted, actual float64) float64 {
	if actual == 0 {
		return math.Abs(predicted)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// SignedRelErr returns (predicted − actual)/actual, positive when the
// prediction is high.
func SignedRelErr(predicted, actual float64) float64 {
	if actual == 0 {
		return predicted
	}
	return (predicted - actual) / actual
}

// Mean returns the arithmetic mean; zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stream is a single-pass streaming aggregator: count, running mean and
// maximum. The zero value is an empty stream. It is the building block of
// campaign per-dimension summaries, where thousands of run results are
// folded without retaining them.
type Stream struct {
	n         int
	mean, max float64
}

// Add folds one observation into the stream.
func (s *Stream) Add(x float64) {
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
}

// N returns the number of observations.
func (s *Stream) N() int { return s.n }

// Mean returns the running mean; zero for an empty stream.
func (s *Stream) Mean() float64 { return s.mean }

// Max returns the largest observation; zero for an empty stream.
func (s *Stream) Max() float64 { return s.max }

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; xs is not modified. The edge
// cases are defined, not panics: an empty xs yields 0 (the convention of
// Stream's empty-stream accessors), and a p that is NaN or outside [0, 1]
// yields NaN — an impossible quantile a report renders as "NaN" instead of
// crashing the sweep that computed thousands of valid rows.
func Percentile(xs []float64, p float64) float64 {
	return Percentiles(xs, p)[0]
}

// Percentiles returns the quantiles of xs at each p in ps, sharing one sort
// of a copy of xs across all of them. Edge cases follow Percentile: an
// empty xs yields all zeros, an invalid p yields NaN for that entry only.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, p := range ps {
		if p < 0 || p > 1 || math.IsNaN(p) {
			out[i] = math.NaN()
			continue
		}
		pos := p * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		out[i] = sorted[lo] + frac*(sorted[hi]-sorted[lo])
	}
	return out
}

// RelChange returns the relative change (treat − base)/base of a paired
// observation — the effect-size primitive of the hypothesis harness:
// positive when the treatment arm's value is larger. When base is zero the
// change is reported as treat itself (the SignedRelErr convention), so a
// zero baseline is defined, not a panic or an infinity.
func RelChange(base, treat float64) float64 {
	if base == 0 {
		return treat
	}
	return (treat - base) / base
}

// PairedRelChange returns the element-wise relative changes between paired
// baseline and treatment observations. Edge cases are defined, not panics
// (the Percentiles discipline): mismatched lengths yield nil — an
// impossible pairing a caller detects with one nil check instead of
// crashing the sweep that produced the slices — and two empty slices yield
// an empty, non-nil slice.
func PairedRelChange(base, treat []float64) []float64 {
	if len(base) != len(treat) {
		return nil
	}
	out := make([]float64, len(base))
	for i := range base {
		out[i] = RelChange(base[i], treat[i])
	}
	return out
}

// Effect summarises a set of per-seed effect sizes by its extremes and
// median — the three numbers a confirm/refute verdict is rendered from:
// the sign of every seed (Min and Max straddle zero iff the seeds
// disagree) and the magnitude of the typical one (Median).
type Effect struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// EffectOf folds per-seed effect sizes into an Effect. An empty slice
// yields the zero Effect (the empty-stream convention of Stream and
// Percentiles).
func EffectOf(effects []float64) Effect {
	if len(effects) == 0 {
		return Effect{}
	}
	q := Percentiles(effects, 0, 0.5, 1)
	return Effect{N: len(effects), Min: q[0], Median: q[1], Max: q[2]}
}

// Consistent reports whether every summarised effect has the same sign as
// sign (+1 or −1): the all-seeds-agree condition of a Confirmed or Refuted
// verdict. A zero effect at any seed, or an empty Effect, is never
// consistent — "no measurable change" must not confirm a directional claim.
func (e Effect) Consistent(sign float64) bool {
	if e.N == 0 {
		return false
	}
	return e.Min*sign > 0 && e.Max*sign > 0
}

// ErrorSummary aggregates relative errors between prediction/measurement
// pairs.
type ErrorSummary struct {
	N         int
	MeanAbs   float64 // mean |relative error|
	MaxAbs    float64 // max |relative error|
	MeanSgn   float64 // mean signed relative error (bias)
	WorstPred float64 // prediction at the worst point
	WorstAct  float64 // measurement at the worst point
}

// Summarize computes an ErrorSummary over paired predictions and
// measurements.
func Summarize(predicted, actual []float64) ErrorSummary {
	if len(predicted) != len(actual) {
		panic(fmt.Sprintf("stats: mismatched lengths %d vs %d", len(predicted), len(actual)))
	}
	var s ErrorSummary
	s.N = len(predicted)
	for i := range predicted {
		re := RelErr(predicted[i], actual[i])
		s.MeanAbs += re
		s.MeanSgn += SignedRelErr(predicted[i], actual[i])
		if re > s.MaxAbs {
			s.MaxAbs = re
			s.WorstPred = predicted[i]
			s.WorstAct = actual[i]
		}
	}
	if s.N > 0 {
		s.MeanAbs /= float64(s.N)
		s.MeanSgn /= float64(s.N)
	}
	return s
}

// String implements fmt.Stringer.
func (s ErrorSummary) String() string {
	return fmt.Sprintf("n=%d mean|err|=%.2f%% max|err|=%.2f%% bias=%+.2f%%",
		s.N, s.MeanAbs*100, s.MaxAbs*100, s.MeanSgn*100)
}
