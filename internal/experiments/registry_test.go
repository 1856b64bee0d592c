package experiments

import (
	"slices"
	"testing"

	"repro/internal/solve"
)

// config.go's blank imports are the one place policies register, so any
// binary linking this package resolves every policy name.
func TestPoliciesList(t *testing.T) {
	names := solve.Policies()
	for _, want := range []string{"XY", "SG", "IG", "TB", "XYI", "PR", "BEST", "OPT", "2MP", "4MP", "MAXMP", "SA", "TABLE"} {
		if !slices.Contains(names, want) {
			t.Errorf("Policies() missing %s (got %v)", want, names)
		}
	}
}
