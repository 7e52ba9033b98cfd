// Package machine describes parallel platforms: node counts, cores per
// node, the Cx × Cy rectangle that a node's cores occupy in the logical
// processor grid (paper Section 4.3), and the node-internal interconnect
// (shared bus vs. partitioned bus groups, paper Section 5.3).
package machine

import (
	"fmt"

	"repro/internal/logp"
	"repro/internal/topo"
)

// Machine is a parallel platform configuration.
type Machine struct {
	Name string
	// Params is the LogGP parameter set governing communication costs.
	Params logp.Params
	// CoresPerNode is the number of cores on each node (C in the paper's
	// all-reduce model, equation (9)).
	CoresPerNode int
	// Cx, Cy give the rectangle of the logical processor grid mapped onto
	// one node's cores; Cx × Cy must equal CoresPerNode (Table 6).
	Cx, Cy int
	// BusGroups is the number of independent shared-bus/NIC groups within a
	// node. The XT4 has one shared bus per node. Paper Section 5.3 evaluates
	// a 16-core node "provisioned with a separate shared bus, shared memory,
	// and NIC for each group of 4 cores", i.e. BusGroups = 4.
	BusGroups int
	// Interconnect describes the inter-node fabric. The zero value is the
	// paper's flat-wire assumption (uncontended LogGP between nodes); torus
	// and fat-tree specs route off-node traffic over explicit contended
	// links (internal/topo).
	Interconnect topo.Spec
}

// WithInterconnect returns a copy of the machine using the given inter-node
// fabric.
func (m Machine) WithInterconnect(spec topo.Spec) Machine {
	m.Interconnect = spec
	return m
}

// XT4 returns the dual-core Cray XT4 configuration used throughout the
// paper's validation: 2 cores per node arranged 1×2 in the processor grid,
// one shared bus.
func XT4() Machine {
	return Machine{
		Name:         "Cray XT4 (dual-core)",
		Params:       logp.XT4(),
		CoresPerNode: 2,
		Cx:           1,
		Cy:           2,
		BusGroups:    1,
	}
}

// XT4SingleCore returns the XT4 configured to run one core per node
// (Section 4.2's baseline case; all communication is off-node).
func XT4SingleCore() Machine {
	return Machine{
		Name:         "Cray XT4 (single-core mode)",
		Params:       logp.XT4(),
		CoresPerNode: 1,
		Cx:           1,
		Cy:           1,
		BusGroups:    1,
	}
}

// SP2 returns the IBM SP/2 configuration referenced for contrast in
// Sections 3.1 and 5.1 (single-core nodes, high L and o).
func SP2() Machine {
	return Machine{
		Name:         "IBM SP/2",
		Params:       logp.SP2(),
		CoresPerNode: 1,
		Cx:           1,
		Cy:           1,
		BusGroups:    1,
	}
}

// XT4MultiCore returns a hypothetical XT4-like machine with the given number
// of cores per node sharing one bus, using the core rectangles of paper
// Table 6 and Section 5.3: 1×1, 1×2, 2×2, 2×4, 4×4.
func XT4MultiCore(cores int) (Machine, error) {
	cx, cy, err := CoreRectangle(cores)
	if err != nil {
		return Machine{}, err
	}
	return Machine{
		Name:         fmt.Sprintf("XT4-like (%d cores/node)", cores),
		Params:       logp.XT4(),
		CoresPerNode: cores,
		Cx:           cx,
		Cy:           cy,
		BusGroups:    1,
	}, nil
}

// XT4MultiCoreGrouped is XT4MultiCore with the node's cores split into the
// given number of independent bus/NIC groups (Section 5.3's alternative
// 16-core node design with a bus per 4-core group).
func XT4MultiCoreGrouped(cores, groups int) (Machine, error) {
	m, err := XT4MultiCore(cores)
	if err != nil {
		return Machine{}, err
	}
	if groups <= 0 || cores%groups != 0 {
		return Machine{}, fmt.Errorf("machine: %d cores cannot form %d bus groups", cores, groups)
	}
	m.BusGroups = groups
	m.Name = fmt.Sprintf("XT4-like (%d cores/node, %d bus groups)", cores, groups)
	return m, nil
}

// CoreRectangle returns the paper's Cx × Cy arrangement for a node with the
// given number of cores: the most-square rectangle with Cy ≥ Cx, matching
// Table 6 (1×2, 2×2, 2×4) and Section 5.3 (4×4 for 16 cores).
func CoreRectangle(cores int) (cx, cy int, err error) {
	if cores <= 0 {
		return 0, 0, fmt.Errorf("machine: invalid core count %d", cores)
	}
	cx = 1
	for c := 1; c*c <= cores; c++ {
		if cores%c == 0 {
			cx = c
		}
	}
	return cx, cores / cx, nil
}

// Validate reports an error for inconsistent configurations.
func (m Machine) Validate() error {
	if err := m.Params.Validate(); err != nil {
		return err
	}
	if m.CoresPerNode <= 0 {
		return fmt.Errorf("machine %q: invalid cores per node %d", m.Name, m.CoresPerNode)
	}
	if m.Cx*m.Cy != m.CoresPerNode {
		return fmt.Errorf("machine %q: core rectangle %dx%d does not cover %d cores",
			m.Name, m.Cx, m.Cy, m.CoresPerNode)
	}
	if m.BusGroups <= 0 || m.CoresPerNode%m.BusGroups != 0 {
		return fmt.Errorf("machine %q: %d cores cannot form %d bus groups",
			m.Name, m.CoresPerNode, m.BusGroups)
	}
	if err := m.Interconnect.Validate(); err != nil {
		return fmt.Errorf("machine %q: %w", m.Name, err)
	}
	return nil
}

// CoresPerBus returns the number of cores sharing each bus/NIC group.
func (m Machine) CoresPerBus() int { return m.CoresPerNode / m.BusGroups }

// String implements fmt.Stringer.
func (m Machine) String() string {
	s := fmt.Sprintf("%s [%d cores/node as %dx%d, %d bus group(s), %s]",
		m.Name, m.CoresPerNode, m.Cx, m.Cy, m.BusGroups, m.Params.Name)
	if m.Interconnect.Kind != topo.Bus {
		s += " via " + m.Interconnect.String()
	}
	return s
}
