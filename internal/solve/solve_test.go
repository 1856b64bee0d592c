package solve_test

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/exact"
	_ "repro/internal/experiments" // registers every policy
	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

func demoInstance(t *testing.T) solve.Instance {
	t.Helper()
	return solve.Instance{
		Mesh:  mesh.MustNew(2, 2),
		Model: power.Figure2(),
		Comms: comm.Set{
			{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1},
			{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 3},
		},
	}
}

func TestPoliciesSortedAndComplete(t *testing.T) {
	names := solve.Policies()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Policies() not sorted: %v", names)
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"XY", "SG", "IG", "TB", "XYI", "PR", "BEST", "SA", "OPT", "2MP", "4MP", "MAXMP", "TABLE"} {
		if !have[want] {
			t.Errorf("Policies() missing %s (got %v)", want, names)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	for _, name := range []string{"PR", "pr", "Pr", "maxmp", "MaxMP", "2mp", "opt", "sa"} {
		s, err := solve.Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if !strings.EqualFold(s.Name(), name) {
			t.Errorf("Lookup(%q) resolved to %q", name, s.Name())
		}
	}
}

func TestLookupUnknownErrorText(t *testing.T) {
	_, err := solve.Lookup("nope")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown policy "nope"`) {
		t.Errorf("error %q lacks the offending name", msg)
	}
	if !strings.Contains(msg, "PR") || !strings.Contains(msg, "MAXMP") {
		t.Errorf("error %q does not list the registered policies", msg)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	solve.Register(solve.Func{PolicyName: "DUP-TEST", RouteFunc: nil})
	t.Cleanup(func() { solve.Unregister("DUP-TEST") })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	// Same name, different case: the registry is case-insensitive, so this
	// must still collide.
	solve.Register(solve.Func{PolicyName: "dup-test", RouteFunc: nil})
}

// The duplicate-registration test leaves no policy behind: a nil
// RouteFunc left in the process-wide registry would panic any later test
// that routes every registered policy.
func TestDuplicateRegistrationLeavesNoPolicy(t *testing.T) {
	t.Run("duplicate", TestDuplicateRegistrationPanics)
	for _, name := range solve.Policies() {
		if strings.EqualFold(name, "DUP-TEST") {
			t.Fatalf("solve.Policies() still lists %q after the duplicate-registration test", name)
		}
	}
}

func TestInstanceValidate(t *testing.T) {
	if err := (solve.Instance{}).Validate(); err == nil {
		t.Error("nil mesh accepted")
	}
	in := demoInstance(t)
	if err := in.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	in.Model = power.Model{}
	if err := in.Validate(); err == nil {
		t.Error("zero model accepted")
	}
}

// An instance is refused before routing when its mesh cannot exist, a
// communication leaves the mesh or the power model is empty.
func TestInstanceValidateRejectsBadInput(t *testing.T) {
	if _, err := mesh.New(0, 3); err == nil {
		t.Error("bad mesh accepted")
	}
	offMesh := demoInstance(t)
	offMesh.Comms = comm.Set{{ID: 1, Src: mesh.Coord{U: 9, V: 9}, Dst: mesh.Coord{U: 1, V: 1}, Rate: 1}}
	if err := offMesh.Validate(); err == nil {
		t.Error("off-mesh communication accepted")
	}
	zero := demoInstance(t)
	zero.Model = power.Model{}
	if err := zero.Validate(); err == nil {
		t.Error("zero model accepted")
	}
}

// The Section 3.5 example (Figure 2): XY burns 128, every single-path
// Manhattan policy finds the 1-MP optimum 56, the 2-MP split goes below
// it and MAXMP reaches the unrestricted optimum 32 (loads 2/2/2/2).
func TestSolvePolicies(t *testing.T) {
	in := demoInstance(t)
	want := map[string]float64{
		"XY": 128, "SG": 56, "IG": 56, "TB": 56, "XYI": 56, "PR": 56,
		"BEST": 56, "OPT": 56, "MAXMP": 32,
	}
	for policy, p := range want {
		r, err := solve.Route(policy, in, solve.Options{})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		tol := 1e-9
		if policy == "MAXMP" {
			tol = 0.01 // Frank–Wolfe stops at a duality-gap tolerance
		}
		res := route.Evaluate(r, in.Model)
		if !res.Feasible || math.Abs(res.Power.Total()-p) > tol {
			t.Errorf("%s power = %g (feasible=%v), want %g", policy, res.Power.Total(), res.Feasible, p)
		}
		if err := r.Validate(in.Comms, 0); err != nil {
			t.Errorf("%s routing invalid: %v", policy, err)
		}
	}
	r, err := solve.Route("2MP", in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p := route.Evaluate(r, in.Model).Power.Total(); p >= 56 {
		t.Errorf("2MP power %g not below the 1-MP optimum 56", p)
	}
}

// 2MP routes every communication of the Figure 2 instance on at least
// one and at most two paths.
func TestTwoMPPathBudget(t *testing.T) {
	in := demoInstance(t)
	r, err := solve.Route("2MP", in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := make(map[int]int)
	for _, f := range r.Flows {
		paths[f.Comm.ID]++
	}
	for _, c := range in.Comms {
		if paths[c.ID] == 0 || paths[c.ID] > 2 {
			t.Errorf("2MP routes comm %d on %d paths, want 1 or 2", c.ID, paths[c.ID])
		}
	}
	if err := r.Validate(in.Comms, 2); err != nil {
		t.Errorf("2MP routing breaks the 2-path budget: %v", err)
	}
}

// BEST is no worse than any feasible single-path heuristic it picks from.
func TestBestNoWorseThanEveryHeuristic(t *testing.T) {
	m := mesh.MustNew(8, 8)
	in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: workload.New(m, 5).Uniform(15, 100, 1500)}
	r, err := solve.Route("BEST", in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	best := route.Evaluate(r, in.Model)
	if !best.Feasible {
		t.Fatalf("BEST infeasible: %v", best.Err)
	}
	for _, name := range []string{"XY", "SG", "IG", "TB", "XYI", "PR"} {
		r, err := solve.Route(name, in, solve.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := route.Evaluate(r, in.Model)
		if res.Feasible && best.Power.Total() > res.Power.Total()+1e-9 {
			t.Errorf("BEST %g worse than %s %g", best.Power.Total(), name, res.Power.Total())
		}
	}
}

// No routing dissipates less than the ideal-share lower bound.
func TestLowerBoundBelowSolutions(t *testing.T) {
	m := mesh.MustNew(8, 8)
	in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: workload.New(m, 9).Uniform(10, 200, 1000)}
	lb := exact.IdealShareLowerBound(m, in.Model, in.Comms)
	r, err := solve.Route("BEST", in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := route.Evaluate(r, in.Model); !res.Feasible {
		t.Fatalf("BEST infeasible: %v", res.Err)
	} else if res.Power.Total() < lb-1e-6 {
		t.Errorf("solution %g below lower bound %g", res.Power.Total(), lb)
	}
}

// A routed solution replays in the NoC simulator at its analytic power;
// an infeasible one has no DVFS operating point and is refused.
func TestRouteSimulatesAtAnalyticPower(t *testing.T) {
	m := mesh.MustNew(8, 8)
	in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: workload.New(m, 17).Uniform(8, 100, 1000)}
	r, err := solve.Route("PR", in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := route.Evaluate(r, in.Model)
	if !res.Feasible {
		t.Fatalf("PR infeasible: %v", res.Err)
	}
	sim, err := noc.New(r, in.Model, noc.Config{Horizon: 800, Warmup: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st := sim.Run(); math.Abs(st.PowerMW-res.Power.Total()) > 1e-6 {
		t.Errorf("simulated power %g != analytic %g", st.PowerMW, res.Power.Total())
	}
	in.Comms = comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 2}, Rate: 3000},
		{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 2}, Rate: 3000},
	}
	r, err = solve.Route("XY", in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noc.New(r, in.Model, noc.Config{}); err == nil {
		t.Error("infeasible routing simulated")
	}
}

// OPT reports an instance no single-path routing can carry as an error.
func TestSolveOPTInfeasible(t *testing.T) {
	heavy := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 2}, Rate: 3},
		{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 2}, Rate: 3},
	}
	in := solve.Instance{Mesh: mesh.MustNew(1, 2), Model: power.Figure2(), Comms: heavy}
	if _, err := solve.Route("OPT", in, solve.Options{}); err == nil {
		t.Error("OPT on infeasible instance did not error")
	}
}
