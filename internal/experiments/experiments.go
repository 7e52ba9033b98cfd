// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sections 3 and 5). Each driver returns both typed
// results for tests/benchmarks and a formatted Table whose rows mirror the
// series the paper plots. The cmd/wavebench tool runs drivers by id.
//
// IDs is the experiment index (`go run ./cmd/wavebench -list` prints it),
// and each Table's Notes record how its rows compare with the paper.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/simmpi"
)

// Table is a formatted experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table in aligned plain text.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Driver runs one experiment with default parameters. Drivers that support
// a fast mode receive quick == true when invoked from tests.
type Driver func(quick bool) (Table, error)

var registry = map[string]Driver{}
var registryOrder []string

// Register adds a driver under an experiment id (e.g. "fig5"). It panics
// on duplicates; registration happens in package init functions.
func Register(id string, d Driver) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate driver " + id)
	}
	registry[id] = d
	registryOrder = append(registryOrder, id)
}

// Run executes the driver registered under id.
func Run(id string, quick bool) (Table, error) {
	d, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown experiment %q (available: %s)",
			id, strings.Join(IDs(), ", "))
	}
	return d(quick)
}

// IDs returns the registered experiment ids in registration order.
func IDs() []string {
	out := make([]string, len(registryOrder))
	copy(out, registryOrder)
	return out
}

// All runs every registered experiment.
func All(quick bool) ([]Table, error) {
	tables := make([]Table, 0, len(registryOrder))
	for _, id := range registryOrder {
		t, err := Run(id, quick)
		if err != nil {
			return tables, fmt.Errorf("experiment %s: %w", id, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%+.2f%%", v*100) }

// sweep3DSpec is a campaign of Sweep3D at Htile 2 on grid g, one run per
// machine and rank count, of one iteration unless the caller sets
// Iterations.
func sweep3DSpec(name string, g grid.Grid, ranks []int, machines ...config.MachineSpec) campaign.Spec {
	gs := config.GridSpec{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz}
	s := campaign.Spec{Name: name, Apps: []campaign.AppDim{{Preset: "sweep3d", Grid: &gs, Htile: 2}}, Ranks: ranks}
	for _, m := range machines {
		s.Machines = append(s.Machines, campaign.MachineDim{MachineSpec: m})
	}
	return s
}

// simulate expands the spec and simulates its runs in order through
// campaign.Run.Simulate, on one serial simulator reused from run to run.
func simulate(s campaign.Spec) ([]campaign.Simulation, error) {
	runs, err := s.Expand()
	if err != nil {
		return nil, err
	}
	sims := make([]campaign.Simulation, len(runs))
	var sim *simmpi.Sim
	for i, r := range runs {
		if sims[i], err = r.Simulate(sim, simmpi.Options{}); err != nil {
			return nil, err
		}
		sim = sims[i].Sim
	}
	return sims, nil
}
