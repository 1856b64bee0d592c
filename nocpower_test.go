package repro_test

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/topo"
	"repro/internal/workload"
)

// multiPathPolicies split communications over several flows; every other
// registered policy must route one flow per communication.
var multiPathPolicies = map[string]bool{"2MP": true, "4MP": true, "MAXMP": true}

// TestSimulatedPowerMatchesAnalytic replays every registered single-path
// policy's routings on mesh, torus and circulant platforms through the NoC
// simulator. The simulator configures its links from the routing alone,
// so the power it reports must equal the analytic evaluation: the same
// active links at the same DVFS frequencies, the same total power, and
// no operating point exactly when the analytic routing is infeasible.
func TestSimulatedPowerMatchesAnalytic(t *testing.T) {
	model := power.KimHorowitz()
	var platforms []topo.Topology
	for _, spec := range []string{"torus:6x6", "circulant:27:1,3,9"} {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		platforms = append(platforms, tp)
	}
	platforms = append([]topo.Topology{mesh.MustNew(6, 6)}, platforms...)

	replayed := map[string]int{} // feasible routings replayed per platform
	for _, name := range solve.Policies() {
		if multiPathPolicies[name] {
			continue
		}
		s, err := solve.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range platforms {
			if !solve.Supports(s, tp) {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				set := workload.New(tp.Carrier(), seed).Uniform(8, 100, 1500)
				in := solve.Instance{Topo: tp, Model: model, Comms: set}
				if m, ok := tp.(*mesh.Mesh); ok {
					in = solve.Instance{Mesh: m, Model: model, Comms: set}
				}
				r, err := s.Route(in, solve.Options{ExactWorkers: 1})
				if err != nil {
					t.Fatalf("%s on %s seed %d: %v", name, tp.Spec(), seed, err)
				}
				label := name + " on " + tp.Spec()
				if err := r.Validate(set, 1); err != nil {
					t.Fatalf("%s seed %d: not a single-path routing: %v", label, seed, err)
				}
				if checkSimPower(t, label, seed, r, model) {
					replayed[tp.Spec()]++
				}
			}
		}
	}
	for _, tp := range platforms {
		t.Logf("%s: %d feasible routings replayed", tp.Spec(), replayed[tp.Spec()])
		if replayed[tp.Spec()] == 0 {
			t.Errorf("no feasible routing replayed on %s", tp.Spec())
		}
	}
}

// checkSimPower cross-checks one routing and reports whether it was
// feasible, hence replayed.
func checkSimPower(t *testing.T, label string, seed int64, r route.Routing, model power.Model) bool {
	t.Helper()
	res := route.Evaluate(r, model)
	sim, err := noc.New(r, model, noc.Config{Horizon: 200, Warmup: 50})
	if !res.Feasible {
		if err == nil {
			t.Errorf("%s seed %d: analytically infeasible, but the simulator found an operating point", label, seed)
		}
		return false
	}
	if err != nil {
		t.Fatalf("%s seed %d: feasible routing has no operating point: %v", label, seed, err)
	}
	st := sim.Run()
	if st.ActiveLinks != res.Power.ActiveLinks {
		t.Errorf("%s seed %d: %d active links simulated, %d analytic", label, seed, st.ActiveLinks, res.Power.ActiveLinks)
	}
	for id, load := range res.Loads {
		want := 0.0
		if load > 0 {
			if want, err = model.Quantize(load); err != nil {
				t.Fatal(err)
			}
		}
		if st.LinkFreq[id] != want {
			t.Errorf("%s seed %d: link %d at %g Mb/s, analytic %g", label, seed, id, st.LinkFreq[id], want)
		}
	}
	if got, want := st.PowerMW, res.Power.Total(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("%s seed %d: simulated power %.12g mW, analytic %.12g mW", label, seed, got, want)
	}
	return true
}
