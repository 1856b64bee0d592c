package solve_test

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

// equivCase is one randomized instance of the dense-vs-reference sweep.
type equivCase struct {
	name string
	in   solve.Instance
	opts solve.Options
}

// equivCases draws seeded instances over two mesh sizes and both power
// models, so one reused workspace sees rebinters, re-sizes and every
// policy family.
func equivCases(t *testing.T) []equivCase {
	t.Helper()
	var cases []equivCase
	add := func(p, q, n int, seed int64, model power.Model, tag string) {
		m := mesh.MustNew(p, q)
		set := workload.New(m, seed).Uniform(n, 100, 1200)
		cases = append(cases, equivCase{
			name: fmt.Sprintf("%s-%dx%d-n%d-s%d", tag, p, q, n, seed),
			in:   solve.Instance{Mesh: m, Model: model, Comms: set},
			// Small budgets keep SA and MAXMP quick without changing the
			// fresh-vs-reused comparison.
			opts: solve.Options{Seed: seed, SAIters: 200, FWMaxIters: 40},
		})
	}
	add(8, 8, 12, 3, power.KimHorowitz(), "disc")
	add(8, 8, 30, 7, power.KimHorowitz(), "disc")
	add(8, 8, 12, 11, power.KimHorowitzContinuous(), "cont")
	add(4, 4, 5, 5, power.KimHorowitz(), "small")
	return cases
}

// registered is every policy the imports register, taken before
// TestDuplicateRegistrationPanics adds its stub.
var registered = solve.Policies()

// Every registered policy must return bit-for-bit identical routings and
// power figures whether it allocates fresh state per call or reuses one
// dense workspace across all instances (including across mesh rebinds) —
// the behavioral-equivalence pin of the workspace refactor.
func TestWorkspaceReuseMatchesFreshAcrossPolicies(t *testing.T) {
	cases := equivCases(t)
	for _, policy := range registered {
		t.Run(policy, func(t *testing.T) {
			ws := route.NewWorkspace() // shared across every instance of the policy
			for _, tc := range cases {
				if policy == "OPT" && len(tc.in.Comms) > 6 {
					continue // branch-and-bound is exponential; small instances only
				}
				fresh, freshErr := solve.Route(policy, tc.in, tc.opts)
				opts := tc.opts
				opts.Workspace = ws
				reused, reusedErr := solve.Route(policy, tc.in, opts)
				if (freshErr == nil) != (reusedErr == nil) {
					t.Fatalf("%s: error mismatch: fresh=%v reused=%v", tc.name, freshErr, reusedErr)
				}
				if freshErr != nil {
					continue
				}
				if !sameRouting(fresh, reused) {
					t.Fatalf("%s: workspace reuse changed the routing", tc.name)
				}
				fe := route.Evaluate(fresh, tc.in.Model)
				re := route.Evaluate(reused, tc.in.Model)
				if fe.Feasible != re.Feasible || fe.Power != re.Power {
					t.Fatalf("%s: workspace reuse changed the evaluation: %+v vs %+v",
						tc.name, fe.Power, re.Power)
				}
				// Keep nothing aliasing ws: the next iteration reuses it.
			}
		})
	}
}

// Reusing a workspace must also be self-consistent: the same instance
// solved twice through one workspace (with other instances in between)
// yields the same routing.
func TestWorkspaceReuseIsStable(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	sets := make([]comm.Set, 6)
	for i := range sets {
		sets[i] = workload.New(m, int64(i+1)).Uniform(20, 100, 1500)
	}
	for _, policy := range []string{"XY", "SG", "IG", "TB", "XYI", "PR", "BEST", "2MP"} {
		ws := route.NewWorkspace()
		first := make([]route.Routing, len(sets))
		for i, set := range sets {
			r, err := solve.Route(policy, solve.Instance{Mesh: m, Model: model, Comms: set},
				solve.Options{Workspace: ws})
			if err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			first[i] = r.Clone()
		}
		for i, set := range sets {
			r, err := solve.Route(policy, solve.Instance{Mesh: m, Model: model, Comms: set},
				solve.Options{Workspace: ws})
			if err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			if !sameRouting(first[i], r) {
				t.Errorf("%s: instance %d drifted on workspace re-solve", policy, i)
			}
		}
	}
}

// The dense path slots must tolerate the ID shapes the old map-based state
// accepted: negative and very sparse comm IDs route without panicking or
// over-allocating, identically with and without a workspace.
func TestWorkspaceHandlesSparseAndNegativeIDs(t *testing.T) {
	m := mesh.MustNew(6, 6)
	model := power.KimHorowitz()
	set := comm.Set{
		{ID: -3, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 4, V: 5}, Rate: 300},
		{ID: 1 << 40, Src: mesh.Coord{U: 6, V: 6}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 500},
		{ID: 5, Src: mesh.Coord{U: 3, V: 1}, Dst: mesh.Coord{U: 3, V: 6}, Rate: 200},
	}
	in := solve.Instance{Mesh: m, Model: model, Comms: set}
	ws := route.NewWorkspace()
	for _, policy := range []string{"XY", "SG", "IG", "TB", "XYI", "PR", "BEST", "SA"} {
		fresh, err := solve.Route(policy, in, solve.Options{})
		if err != nil {
			t.Fatalf("%s fresh: %v", policy, err)
		}
		reused, err := solve.Route(policy, in, solve.Options{Workspace: ws})
		if err != nil {
			t.Fatalf("%s reused: %v", policy, err)
		}
		if !sameRouting(fresh, reused) {
			t.Errorf("%s: sparse-ID routing diverged under workspace reuse", policy)
		}
		if err := reused.Validate(set, 1); err != nil {
			t.Errorf("%s: invalid routing on sparse IDs: %v", policy, err)
		}
	}
}
