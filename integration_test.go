// End-to-end integration tests: one routed instance flows through every
// subsystem — validation, power evaluation, lower bounds, forwarding
// tables, deadlock analysis, and the discrete-event simulator — and all
// the cross-module invariants must hold simultaneously.
package repro_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/deadlock"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/optflow"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/rtable"
	"repro/internal/solve"
	"repro/internal/workload"
)

// The grand tour: route a mixed application workload with every policy,
// then push the best routing through tables, deadlock certification and
// simulation.
func TestFullStackPipeline(t *testing.T) {
	m := mesh.MustNew(8, 8)
	set, err := workload.Pipeline(m, nil, mesh.Coord{U: 1, V: 1}, 6, 1200)
	if err != nil {
		t.Fatal(err)
	}
	set, err = workload.Stencil(m, set, mesh.Box{UMin: 5, UMax: 7, VMin: 5, VMax: 7}, 400)
	if err != nil {
		t.Fatal(err)
	}
	set, err = workload.Transpose(m, set, mesh.Box{UMin: 4, UMax: 7, VMin: 1, VMax: 4}, 800)
	if err != nil {
		t.Fatal(err)
	}

	in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set}
	results := make(map[string]route.Result)
	var best route.Routing
	for _, name := range experiments.HeuristicNames {
		r, err := solve.Route(name, in, solve.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = route.Evaluate(r, in.Model)
		if name == "BEST" {
			best = r
		}
	}
	bestRes := results["BEST"]
	if !bestRes.Feasible {
		t.Fatalf("BEST infeasible on the application mix: %v", bestRes.Err)
	}
	bestPower := bestRes.Power.Total()
	// 1. Structural validity under the 1-MP rule; BEST is the cheapest
	// feasible heuristic.
	if err := best.Validate(set, 1); err != nil {
		t.Fatalf("routing validation: %v", err)
	}
	for name, res := range results {
		if res.Feasible && bestPower > res.Power.Total()+1e-9 {
			t.Errorf("BEST %g worse than %s %g", bestPower, name, res.Power.Total())
		}
	}
	// 2. Power ≥ ideal-share lower bound.
	if lb := exact.IdealShareLowerBound(m, in.Model, set); bestPower < lb-1e-6 {
		t.Fatalf("power %g below lower bound %g", bestPower, lb)
	}
	// 3. Forwarding tables compile and verify.
	tbl, err := rtable.Build(best)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Verify(best); err != nil {
		t.Fatal(err)
	}
	// 4. Escape-channel assignment certifies deadlock freedom.
	assign := deadlock.EscapeChannels(best)
	if err := assign.Validate(best); err != nil {
		t.Fatal(err)
	}
	if eg := deadlock.EscapeCDG(best, assign); !eg.Acyclic() {
		t.Fatal("escape CDG cyclic")
	}
	// 5. The simulator delivers the workload at the analytic power.
	sim, err := noc.New(best, in.Model, noc.Config{Horizon: 2500, Warmup: 400})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if math.Abs(st.PowerMW-bestPower) > 1e-6 {
		t.Fatalf("simulated power %g != analytic %g", st.PowerMW, bestPower)
	}
	for _, c := range set {
		if rel := math.Abs(st.DeliveredRate(c.ID)-c.Rate) / c.Rate; rel > 0.1 {
			t.Errorf("comm %d goodput off by %.1f%%", c.ID, rel*100)
		}
	}
}

// Power ordering across the policy spectrum on one instance:
// maxMP(dynamic) ≤ OPT exact ≤ BEST heuristic, and 2MP ≤ ... cannot be
// asserted in general, but the optimum chain must hold.
func TestPolicyPowerOrdering(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitzContinuous()
	set := workload.New(m, 13).Uniform(6, 200, 1800)

	opt, ok, err := exact.Solve(m, model, set)
	if err != nil || !ok {
		t.Fatalf("exact: ok=%v err=%v", ok, err)
	}
	optRes, err := model.Total(opt.Loads())
	if err != nil {
		t.Fatal(err)
	}

	flow, err := optflow.SolveWith(m, model, set, optflow.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The fractional max-MP optimum lower-bounds the exact 1-MP dynamic
	// power.
	if flow.Power > optRes.Dynamic+1e-6 {
		t.Errorf("maxMP optimum %g above 1-MP dynamic %g", flow.Power, optRes.Dynamic)
	}

	r, err := solve.Route("BEST", solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if best := route.Evaluate(r, model); best.Feasible && best.Power.Total() < optRes.Total()-1e-6 {
		t.Errorf("BEST %g beats the exact optimum %g", best.Power.Total(), optRes.Total())
	}
}

// JSON round trip: a workload saved and reloaded
// produces identical routings.
func TestWorkloadRoundTripStability(t *testing.T) {
	m := mesh.MustNew(8, 8)
	set := workload.New(m, 31).Uniform(12, 100, 2000)

	prPower := func(s comm.Set) float64 {
		return solveEval(t, heur.PR{}, solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: s}, solve.Options{}).Power.Total()
	}
	before := prPower(set)

	var buf bytes.Buffer
	if err := comm.WriteJSON(&buf, m, set); err != nil {
		t.Fatal(err)
	}
	_, loaded, err := comm.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if after := prPower(loaded); after != before {
		t.Errorf("routing differs after JSON round trip: %g vs %g", after, before)
	}
}
