package solve_test

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

func randomInstance(t *testing.T, seed int64, n int, model power.Model) solve.Instance {
	t.Helper()
	m := mesh.MustNew(8, 8)
	return solve.Instance{Mesh: m, Model: model, Comms: workload.New(m, seed).Uniform(n, 100, 1200)}
}

func sameRouting(a, b route.Routing) bool {
	if len(a.Flows) != len(b.Flows) {
		return false
	}
	for i := range a.Flows {
		if a.Flows[i].Comm != b.Flows[i].Comm || len(a.Flows[i].Path) != len(b.Flows[i].Path) {
			return false
		}
		for j := range a.Flows[i].Path {
			if a.Flows[i].Path[j] != b.Flows[i].Path[j] {
				return false
			}
		}
	}
	return true
}

// Same seed ⇒ identical SA routing; different seeds ⇒ solutions still
// structurally valid and feasible on this comfortably under-loaded
// instance.
func TestOptionsSeedDeterminism(t *testing.T) {
	in := randomInstance(t, 11, 12, power.KimHorowitz())
	r1, err := solve.Route("SA", in, solve.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := solve.Route("SA", in, solve.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRouting(r1, r2) {
		t.Error("SA with the same seed produced different routings")
	}
	for _, seed := range []int64{1, 2, 99} {
		r, err := solve.Route("SA", in, solve.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := r.Validate(in.Comms, 1); err != nil {
			t.Errorf("seed %d: invalid routing: %v", seed, err)
		}
		if res := route.Evaluate(r, in.Model); !res.Feasible {
			t.Errorf("seed %d: infeasible SA routing on an easy instance", seed)
		}
	}
}

// MaxPaths overrides the split count of the equal-split policies: "2MP"
// forced to 4 paths is exactly "4MP".
func TestOptionsMaxPaths(t *testing.T) {
	in := randomInstance(t, 17, 10, power.KimHorowitz())
	forced, err := solve.Route("2MP", in, solve.Options{MaxPaths: 4})
	if err != nil {
		t.Fatal(err)
	}
	fourMP, err := solve.Route("4MP", in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRouting(forced, fourMP) {
		t.Error("MaxPaths not plumbed: 2MP with MaxPaths=4 differs from 4MP")
	}
	if err := forced.Validate(in.Comms, 4); err != nil {
		t.Errorf("forced split invalid: %v", err)
	}
}

// The Frank–Wolfe budget is respected: a single iteration still yields a
// structurally valid routing, and its continuous dynamic power cannot beat
// the converged run (FW's objective is non-increasing per iteration).
func TestOptionsFrankWolfeBudget(t *testing.T) {
	in := randomInstance(t, 19, 20, power.KimHorowitzContinuous())
	truncated, err := solve.Route("MAXMP", in, solve.Options{FWMaxIters: 1, FWTolerance: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := truncated.Validate(in.Comms, 0); err != nil {
		t.Fatalf("truncated MAXMP routing invalid: %v", err)
	}
	converged, err := solve.Route("MAXMP", in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pTrunc := route.Evaluate(truncated, in.Model).Power.Dynamic
	pConv := route.Evaluate(converged, in.Model).Power.Dynamic
	if pTrunc < pConv-1e-6 {
		t.Errorf("1-iteration FW power %g beats converged %g", pTrunc, pConv)
	}
	if pTrunc == pConv {
		t.Error("FWMaxIters had no effect: truncated run equals converged run")
	}
}
