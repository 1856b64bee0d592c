package exact

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

// The optimum of the Figure 2 instance under 1-MP is 56.
func TestSolveFigure2(t *testing.T) {
	m := mesh.MustNew(2, 2)
	set := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1},
		{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 3},
	}
	r, ok, err := Solve(m, power.Figure2(), set)
	if err != nil || !ok {
		t.Fatalf("Solve: ok=%v err=%v", ok, err)
	}
	res := route.Evaluate(r, power.Figure2())
	if math.Abs(res.Power.Total()-56) > 1e-9 {
		t.Fatalf("optimal power = %g, want 56", res.Power.Total())
	}
	if err := r.Validate(set, 1); err != nil {
		t.Fatal(err)
	}
}

// Infeasible instances are reported as such: two rate-3 flows through a
// single shared link of capacity 4.
func TestSolveInfeasible(t *testing.T) {
	m := mesh.MustNew(1, 2) // a single horizontal corridor
	set := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 2}, Rate: 3},
		{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 2}, Rate: 3},
	}
	_, ok, err := Solve(m, power.Figure2(), set)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("infeasible instance solved")
	}
}

// No heuristic ever beats the exact optimum, and the optimum never beats
// the ideal-share lower bound.
func TestHeuristicsNeverBeatOptimum(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitz()
	for seed := int64(0); seed < 12; seed++ {
		set := workload.New(m, 500+seed).Uniform(5, 200, 2500)
		r, ok, err := Solve(m, model, set)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		opt := route.Evaluate(r, model)
		if !opt.Feasible {
			t.Fatalf("seed %d: optimal routing evaluates infeasible", seed)
		}
		if lb := IdealShareLowerBound(m, model, set); opt.Power.Total() < lb-1e-6 {
			t.Fatalf("seed %d: optimum %g beats lower bound %g", seed, opt.Power.Total(), lb)
		}
		in := solve.Instance{Mesh: m, Model: model, Comms: set}
		for _, h := range []solve.Solver{heur.XY{}, heur.SG{}, heur.IG{}, heur.TB{}, heur.XYI{}, heur.PR{}} {
			r, err := h.Route(in, solve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res := route.Evaluate(r, model)
			if res.Feasible && res.Power.Total() < opt.Power.Total()-1e-6 {
				t.Fatalf("seed %d: %s power %g beats optimum %g",
					seed, h.Name(), res.Power.Total(), opt.Power.Total())
			}
		}
	}
}

// Whenever the exact solver finds the instance feasible, BEST should too
// (on these small, lightly-loaded instances the heuristics have enough
// room), and its power should be within a reasonable factor of optimal.
func TestBestWithinFactorOfOptimum(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitz()
	worst := 1.0
	for seed := int64(0); seed < 12; seed++ {
		set := workload.New(m, 900+seed).Uniform(4, 200, 1500)
		r, ok, err := Solve(m, model, set)
		if err != nil || !ok {
			continue
		}
		opt := route.Evaluate(r, model)
		best, err := heur.Best{}.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := route.Evaluate(best, model)
		if !res.Feasible {
			t.Fatalf("seed %d: optimum feasible but BEST failed", seed)
		}
		ratio := res.Power.Total() / opt.Power.Total()
		if ratio > worst {
			worst = ratio
		}
	}
	if worst > 1.5 {
		t.Errorf("BEST strayed %.2fx from optimal on tiny instances", worst)
	}
}

// The ideal-share bound is monotone in traffic and zero for empty sets.
func TestIdealShareLowerBoundBasics(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	if lb := IdealShareLowerBound(m, model, nil); lb != 0 {
		t.Fatalf("empty bound = %g", lb)
	}
	rng := rand.New(rand.NewSource(4))
	set := comm.Set{}
	prev := 0.0
	for i := 0; i < 10; i++ {
		var src, dst mesh.Coord
		for {
			src = mesh.Coord{U: rng.Intn(8) + 1, V: rng.Intn(8) + 1}
			dst = mesh.Coord{U: rng.Intn(8) + 1, V: rng.Intn(8) + 1}
			if src != dst {
				break
			}
		}
		set = append(set, comm.Comm{ID: i, Src: src, Dst: dst, Rate: 500})
		lb := IdealShareLowerBound(m, model, set)
		if lb < prev-1e-9 {
			t.Fatalf("bound decreased after adding traffic: %g -> %g", prev, lb)
		}
		prev = lb
	}
}

func TestSolveRejectsInvalidSet(t *testing.T) {
	m := mesh.MustNew(2, 2)
	set := comm.Set{{ID: 1, Src: mesh.Coord{U: 0, V: 0}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1}}
	if _, _, err := Solve(m, power.Figure2(), set); err == nil {
		t.Error("invalid set accepted")
	}
}
