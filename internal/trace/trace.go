// Package trace turns the per-rank activity spans of a flight recording
// (obs.Recorder.SpanList) into the bottleneck analyses of paper Section
// 5.4: computation/communication breakdowns per rank, aggregate
// pipeline statistics, identification of the critical (busiest and most
// comm-bound) ranks, and a plain-text Gantt rendering for inspection.
//
// The model predicts these breakdowns (Figure 11); the trace measures them
// from the simulated execution, so model abstraction error is visible at
// per-rank granularity. The recorder collects spans on serial and sharded
// runs alike.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// RankProfile is the activity breakdown of one rank over a run.
type RankProfile struct {
	Rank    int
	Compute float64 // time in Compute spans
	Send    float64 // time blocked in sends
	Recv    float64 // time blocked in receives (includes pipeline waiting)
	Coll    float64 // time in collectives
	Finish  float64 // time of the rank's last span end
}

// Comm returns the total communication time (send + recv + collectives).
func (p RankProfile) Comm() float64 { return p.Send + p.Recv + p.Coll }

// CommShare returns the communication fraction of the rank's lifetime.
func (p RankProfile) CommShare() float64 {
	if p.Finish == 0 {
		return 0
	}
	return p.Comm() / p.Finish
}

// Profile aggregates spans into per-rank profiles, indexed by rank.
func Profile(spans []obs.Span, ranks int) []RankProfile {
	out := make([]RankProfile, ranks)
	for i := range out {
		out[i].Rank = i
	}
	for _, s := range spans {
		if s.Rank < 0 || int(s.Rank) >= ranks {
			continue
		}
		p := &out[s.Rank]
		d := s.End - s.Start
		switch s.Kind {
		case obs.SpanCompute:
			p.Compute += d
		case obs.SpanSend:
			p.Send += d
		case obs.SpanRecv:
			p.Recv += d
		case obs.SpanAllReduce:
			p.Coll += d
		}
		if s.End > p.Finish {
			p.Finish = s.End
		}
	}
	return out
}

// Summary is the aggregate of all rank profiles.
type Summary struct {
	Ranks        int
	TotalCompute float64
	TotalComm    float64
	MakeSpan     float64
	// MeanCommShare is the average per-rank communication fraction.
	MeanCommShare float64
	// CriticalRank is the rank with the largest finish time; BoundRank is
	// the rank with the largest communication share.
	CriticalRank, BoundRank int
}

// Summarize aggregates per-rank profiles.
func Summarize(profiles []RankProfile) Summary {
	var s Summary
	s.Ranks = len(profiles)
	var shareSum float64
	var maxShare float64 = -1
	for _, p := range profiles {
		s.TotalCompute += p.Compute
		s.TotalComm += p.Comm()
		if p.Finish > s.MakeSpan {
			s.MakeSpan = p.Finish
			s.CriticalRank = p.Rank
		}
		share := p.CommShare()
		shareSum += share
		if share > maxShare {
			maxShare = share
			s.BoundRank = p.Rank
		}
	}
	if s.Ranks > 0 {
		s.MeanCommShare = shareSum / float64(s.Ranks)
	}
	return s
}

// TopCommBound returns the k ranks with the highest communication share,
// most-bound first.
func TopCommBound(profiles []RankProfile, k int) []RankProfile {
	sorted := make([]RankProfile, len(profiles))
	copy(sorted, profiles)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].CommShare() > sorted[j].CommShare()
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// Gantt renders a plain-text activity chart: one row per rank, buckets
// labelled by the dominant activity in that time slice (c = compute,
// s = send, r = recv, a = all-reduce, · = idle/none).
func Gantt(w io.Writer, spans []obs.Span, ranks, width int) {
	if width <= 0 {
		width = 80
	}
	var end float64
	for _, s := range spans {
		if s.End > end {
			end = s.End
		}
	}
	if end == 0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	bucket := end / float64(width)
	// For each rank and bucket, pick the op covering the most time. A cell
	// is indexed by span kind: compute, send, recv, all-reduce.
	type cell [4]float64
	cells := make([]cell, ranks*width)
	for _, s := range spans {
		if s.Rank < 0 || int(s.Rank) >= ranks || s.Kind > obs.SpanAllReduce {
			continue
		}
		b0 := int(s.Start / bucket)
		b1 := int(s.End / bucket)
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			lo := float64(b) * bucket
			hi := lo + bucket
			overlap := minF(hi, s.End) - maxF(lo, s.Start)
			if overlap <= 0 {
				continue
			}
			cells[int(s.Rank)*width+b][s.Kind] += overlap
		}
	}
	glyphs := [4]byte{'c', 's', 'r', 'a'}
	var sb strings.Builder
	for rank := 0; rank < ranks; rank++ {
		sb.Reset()
		fmt.Fprintf(&sb, "%4d |", rank)
		for b := 0; b < width; b++ {
			c := cells[rank*width+b]
			best, bestV := -1, 0.0
			for i, v := range c {
				if v > bestV {
					best, bestV = i, v
				}
			}
			if best < 0 {
				sb.WriteByte('.')
			} else {
				sb.WriteByte(glyphs[best])
			}
		}
		fmt.Fprintln(w, sb.String())
	}
	fmt.Fprintf(w, "      0%*s%.1fµs\n", width-6, "", end)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
