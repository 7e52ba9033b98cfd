package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// WriteJSONL writes one JSON object per run in index order. The encoding
// contains only deterministic fields, so the bytes are identical for any
// worker count (see the determinism tests).
func WriteJSONL(w io.Writer, results []RunResult) error {
	bw := bufio.NewWriter(w)
	for i := range results {
		b, err := json.Marshal(&results[i])
		if err != nil {
			return fmt.Errorf("campaign: encoding run %d: %w", results[i].Index, err)
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// GroupSummary aggregates the runs sharing one value of one sweep
// dimension: error statistics of the model against the simulator, paper
// accuracy-band counts, and percentiles of the simulated execution time.
type GroupSummary struct {
	Dimension string // "app", "machine", "ranks" or "override"
	Value     string
	Runs      int
	Failed    int

	MeanAbsErr float64
	MaxAbsErr  float64
	Bands      map[string]int

	// Simulated-time percentiles over the group, µs.
	SimP50, SimP90, SimMax float64
}

// Summarize folds results into per-dimension summaries. Groups appear in
// dimension order (app, machine, ranks, override) and, within a dimension,
// in first-appearance order of the run list — deterministic by
// construction.
func Summarize(results []RunResult) []GroupSummary {
	dims := []struct {
		name string
		key  func(r *RunResult) string
	}{
		{"app", func(r *RunResult) string { return r.App }},
		{"machine", func(r *RunResult) string { return r.Machine }},
		{"ranks", func(r *RunResult) string { return fmt.Sprintf("P=%d", r.P) }},
		{"override", func(r *RunResult) string { return r.Override }},
	}
	var out []GroupSummary
	for _, dim := range dims {
		var order []string
		groups := map[string]*groupAcc{}
		for i := range results {
			v := dim.key(&results[i])
			acc, ok := groups[v]
			if !ok {
				acc = &groupAcc{}
				groups[v] = acc
				order = append(order, v)
			}
			acc.add(&results[i])
		}
		for _, v := range order {
			out = append(out, groups[v].summary(dim.name, v))
		}
	}
	return out
}

// groupAcc is the streaming accumulator behind one GroupSummary.
type groupAcc struct {
	errs   stats.Stream
	sims   []float64
	bands  map[string]int
	failed int
}

func (g *groupAcc) add(r *RunResult) {
	if g.bands == nil {
		g.bands = map[string]int{}
	}
	if r.Error != "" {
		g.failed++
		return
	}
	g.errs.Add(r.AbsErr)
	g.sims = append(g.sims, r.SimMicros)
	g.bands[r.Band]++
}

func (g *groupAcc) summary(dim, value string) GroupSummary {
	s := GroupSummary{
		Dimension:  dim,
		Value:      value,
		Runs:       g.errs.N() + g.failed,
		Failed:     g.failed,
		MeanAbsErr: g.errs.Mean(),
		MaxAbsErr:  g.errs.Max(),
		Bands:      g.bands,
	}
	if len(g.sims) > 0 {
		ps := stats.Percentiles(g.sims, 0.5, 0.9, 1)
		s.SimP50, s.SimP90, s.SimMax = ps[0], ps[1], ps[2]
	}
	return s
}

// RenderSummary writes the per-dimension summary tables plus a campaign
// footer (simulator time and throughput) in aligned plain text. The footer
// counts simulated rows only: a row served from the result store took no
// simulator time (its WallSeconds is zero).
func RenderSummary(w io.Writer, name string, results []RunResult, summaries []GroupSummary) {
	fmt.Fprintf(w, "== campaign %s: %d runs ==\n", name, len(results))
	cols := []string{"dimension", "value", "runs", "mean|err|", "max|err|", "bands " + strings.Join(metrics.ErrorBandNames(), "/"), "sim p50(µs)", "sim p90(µs)", "sim max(µs)"}
	rows := make([][]string, 0, len(summaries))
	for _, s := range summaries {
		bands := make([]string, 0, 4)
		for _, b := range metrics.ErrorBandNames() {
			bands = append(bands, fmt.Sprintf("%d", s.Bands[b]))
		}
		runs := fmt.Sprintf("%d", s.Runs)
		if s.Failed > 0 {
			runs = fmt.Sprintf("%d (%d failed)", s.Runs, s.Failed)
		}
		rows = append(rows, []string{
			s.Dimension, s.Value, runs,
			fmt.Sprintf("%.2f%%", s.MeanAbsErr*100),
			fmt.Sprintf("%.2f%%", s.MaxAbsErr*100),
			strings.Join(bands, "/"),
			fmt.Sprintf("%.4g", s.SimP50),
			fmt.Sprintf("%.4g", s.SimP90),
			fmt.Sprintf("%.4g", s.SimMax),
		})
	}
	renderTable(w, cols, rows)

	var wall, events float64
	simulated := 0
	for i := range results {
		if results[i].WallSeconds > 0 {
			simulated++
			wall += results[i].WallSeconds
			events += float64(results[i].Events)
		}
	}
	if simulated == 0 {
		fmt.Fprintln(w, "  no runs simulated")
		return
	}
	fmt.Fprintf(w, "  total simulated work: %d runs, %.3g events, %.2f cpu-seconds (%.0f runs/cpu-sec, %.3gM events/s)\n",
		simulated, events, wall, float64(simulated)/wall, events/wall/1e6)
}

// renderTable writes rows under aligned column headers.
func renderTable(w io.Writer, cols []string, rows [][]string) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", width, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(cols)
	for _, row := range rows {
		line(row)
	}
}
