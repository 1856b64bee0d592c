package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestSolveOnPlatforms drives solveOn through the -topology flag: a mesh
// spelled there routes like the -p/-q mesh, TABLE routes a torus, and a
// mesh-only policy on a torus is an error naming the platform.
func TestSolveOnPlatforms(t *testing.T) {
	for _, tc := range []struct {
		topology, policy, wantErr string
	}{
		{"mesh:4x4", "XY", ""},
		{"torus:4x4", "TABLE", ""},
		{"torus:4x4", "XY", "torus:4x4"},
	} {
		r, res, _, err := solveOn(8, 8, tc.topology, 5, 100, 900, 1, tc.policy)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s on %s: err = %v, want one naming %s", tc.policy, tc.topology, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.policy, tc.topology, err)
		}
		if got := r.Topo.Spec(); got != tc.topology {
			t.Errorf("%s on %s: routed on %s", tc.policy, tc.topology, got)
		}
		if len(r.Flows) != 5 || !res.Feasible {
			t.Errorf("%s on %s: %d flows, feasible %v", tc.policy, tc.topology, len(r.Flows), res.Feasible)
		}
	}
	mesh, _, _, err := solveOn(4, 4, "", 5, 100, 900, 1, "XY")
	if err != nil {
		t.Fatal(err)
	}
	viaTopology, _, _, _ := solveOn(8, 8, "mesh:4x4", 5, 100, 900, 1, "XY")
	if !reflect.DeepEqual(mesh.Flows, viaTopology.Flows) {
		t.Error("-p 4 -q 4 and -topology mesh:4x4 route differently")
	}
}
