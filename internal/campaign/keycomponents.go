package campaign

import "fmt"

// KeyComponent is one labelled dimension of a run's content identity — the
// unit of the hypothesis harness's single-delta check. Components group the
// identity's fields at the granularity an experiment delta is declared at:
// changing a machine's LogGP parameters is one delta ("machine"), not eight.
type KeyComponent struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// KeyComponents renders the run's content identity as labelled components:
// the rendering ContentKey hashes, cut at its component boundaries. Two
// runs' keys therefore differ exactly when some component value does.
// Every run produces the same components in the same order (with "none"
// placeholders where a block is absent), so two runs always diff
// component-by-component.
func (r Run) KeyComponents(mode KeyMode) []KeyComponent {
	var ends [len(componentNames)]int
	b := r.appendIdentity(nil, mode, &ends)
	out := make([]KeyComponent, len(ends))
	start := 0
	for c, end := range ends {
		out[c] = KeyComponent{Name: componentNames[c], Value: string(b[start : end-1])}
		start = end
	}
	return out
}

// DiffKeyComponents returns the names of the components whose values
// differ between two runs' component lists, in render order. It errors if
// the lists do not pair up name-by-name — impossible for lists produced by
// KeyComponents, which always emits every component.
func DiffKeyComponents(a, b []KeyComponent) ([]string, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("campaign: component lists have %d vs %d entries", len(a), len(b))
	}
	var diff []string
	for i := range a {
		if a[i].Name != b[i].Name {
			return nil, fmt.Errorf("campaign: component %d is %q vs %q", i, a[i].Name, b[i].Name)
		}
		if a[i].Value != b[i].Value {
			diff = append(diff, a[i].Name)
		}
	}
	return diff, nil
}
