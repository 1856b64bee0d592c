package main

import (
	"slices"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/solve"
)

// This test binary links the same packages as routed, so the registry it
// sees is the one the service resolves /solve and /sweep policies in.
func TestServiceSeesEveryPolicy(t *testing.T) {
	names := solve.Policies()
	for _, want := range []string{"XY", "SG", "IG", "TB", "XYI", "PR", "BEST", "SA", "OPT", "2MP", "4MP", "MAXMP", "TABLE"} {
		if !slices.Contains(names, want) {
			t.Errorf("routed does not register %s (have %v)", want, names)
		}
	}
	sp, err := scenario.LoadSpec("../../examples/specs/trace8.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.Check(sp); err != nil {
		t.Errorf("/sweep would reject examples/specs/trace8.json: %v", err)
	}
}
