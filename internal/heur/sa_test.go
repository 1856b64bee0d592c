package heur

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// SA produces valid 1-MP routings and never ends worse than its seed
// (the best of TB/XYI/PR), thanks to the final hill-climbing sweep over
// an energy that upper-bounds feasible power.
func TestSANeverWorseThanSeed(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	for seed := int64(0); seed < 5; seed++ {
		set := randomSet(m, 600+seed, 25, 100, 2000)
		in := solve.Instance{Mesh: m, Model: model, Comms: set}
		r, err := SA{}.Route(in, solve.Options{Seed: 7, SAIters: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(set, 1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		start, err := bestOf("BEST", saSeeds, in, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		base := route.Evaluate(start, model)
		sa, err := solveWith(SA{}, in, solve.Options{Seed: 7, SAIters: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if base.Feasible && !sa.Feasible {
			t.Fatalf("seed %d: SA broke feasibility", seed)
		}
		if base.Feasible && sa.Feasible && sa.Power.Total() > base.Power.Total()+1e-6 {
			t.Fatalf("seed %d: SA power %g worse than seed %g",
				seed, sa.Power.Total(), base.Power.Total())
		}
	}
}

func TestSADeterministic(t *testing.T) {
	m := mesh.MustNew(8, 8)
	set := randomSet(m, 5, 20, 100, 2000)
	in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set}
	a, err := SA{}.Route(in, solve.Options{Seed: 3, SAIters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SA{}.Route(in, solve.Options{Seed: 3, SAIters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Flows {
		if pathKey(a.Flows[i].Path) != pathKey(b.Flows[i].Path) {
			t.Fatal("same seed produced different routings")
		}
	}
}

func TestSAFindsFigure2Optimum(t *testing.T) {
	in := figure2Instance()
	res, err := solveWith(SA{}, in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Power.Total() != 56 {
		t.Fatalf("SA on Figure 2: power %g (feasible=%v), want 56", res.Power.Total(), res.Feasible)
	}
}

func TestSAEmptyInstance(t *testing.T) {
	m := mesh.MustNew(4, 4)
	in := solve.Instance{Mesh: m, Model: power.KimHorowitz()}
	r, err := SA{}.Route(in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Flows) != 0 {
		t.Fatal("flows from empty instance")
	}
}
