package main

import (
	"math"
	"math/rand/v2"

	"repro/internal/stats"
)

// summary is one metric as the report prints it: the reported value (the
// median, or the tail percentile Pct for tail metrics), the quartiles of
// the samples and how many there were.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Pct   float64 `json:"pct,omitempty"`
}

func summarize(xs []float64, unit string) summary {
	q := stats.Percentiles(xs, 0.25, 0.5, 0.75)
	return summary{Value: q[1], Unit: unit, Q1: q[0], Q3: q[2], N: len(xs)}
}

// tailPct returns the percentile a tail metric reports for n samples: the
// highest one that still has at least ten samples beyond it, capped at the
// 99th. Below 40 samples that rule would fall under the upper quartile,
// which is reported instead, with fewer than ten samples beyond it; the
// report states n.
func tailPct(n int) float64 {
	return math.Min(0.99, math.Max(0.75, 1-10/float64(n)))
}

func summarizeTail(xs []float64, unit string) summary {
	s := summarize(xs, unit)
	s.Pct = tailPct(len(xs))
	s.Value = stats.Percentile(xs, s.Pct)
	return s
}

func median(xs []float64) float64 { return stats.Percentile(xs, 0.5) }

// permutation returns a seeded shuffle of 0..n-1. stream separates the
// independent random choices one seed drives.
func permutation(seed, stream uint64, n int) []int {
	return rand.New(rand.NewPCG(seed, stream)).Perm(n)
}
