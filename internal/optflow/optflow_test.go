package optflow

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/exact"
	"repro/internal/mesh"
	"repro/internal/multipath"
	"repro/internal/power"
	"repro/internal/workload"
)

// Figure 2 with continuous scaling: the max-MP optimum splits the total
// 4 units evenly over both corner paths, 2 per link: power 2·(2³+2³) = 32,
// exactly the paper's 2-MP routing.
func TestSolveFigure2Optimum(t *testing.T) {
	m := mesh.MustNew(2, 2)
	model := power.Figure2()
	set := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1},
		{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 3},
	}
	sol, err := SolveWith(m, model, set, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Power-32) > 1e-3 {
		t.Fatalf("optimal power = %.6f, want 32 (gap %g, iters %d)", sol.Power, sol.Gap, sol.Iters)
	}
	// All four links balanced at 2.
	for id, v := range sol.Loads {
		if v > 0 && math.Abs(v-2) > 1e-2 {
			t.Errorf("link %d load %g, want 2", id, v)
		}
	}
}

// A single communication spreads over its whole diamond: on a 2×2 mesh the
// optimum halves the flow, 4·(δ/2)^α.
func TestSingleCommSpreads(t *testing.T) {
	m := mesh.MustNew(2, 2)
	model := power.Figure2()
	set := comm.Set{{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 2}}
	sol, err := SolveWith(m, model, set, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * math.Pow(1, 3)
	if math.Abs(sol.Power-want) > 1e-3 {
		t.Fatalf("power %g, want %g", sol.Power, want)
	}
}

// Flow conservation: each communication's fractional flow ships its full
// rate out of the source.
func TestPerCommConservation(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitzContinuous()
	set := workload.New(m, 5).Uniform(10, 100, 2000)
	sol, err := SolveWith(m, model, set, Options{MaxIters: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range set {
		out := 0.0
		for id, v := range sol.PerComm[c.ID] {
			if l := m.LinkByID(id); l.From == c.Src {
				out += v
			}
		}
		if math.Abs(out-c.Rate) > 1e-6*c.Rate+1e-9 {
			t.Errorf("comm %d ships %g from source, want %g", c.ID, out, c.Rate)
		}
	}
	// Loads equal the superposition of per-comm flows.
	sum := make([]float64, m.LinkIDSpace())
	for _, flow := range sol.PerComm {
		for id, v := range flow {
			sum[id] += v
		}
	}
	for id := range sum {
		if math.Abs(sum[id]-sol.Loads[id]) > 1e-6 {
			t.Fatalf("link %d: superposition %g != loads %g", id, sum[id], sol.Loads[id])
		}
	}
}

// The optimum is sandwiched: ideal-share lower bound ≤ optflow ≤ exact
// 1-MP optimum (single-path is a restriction of max-MP).
func TestOptimumSandwich(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.Model{Pleak: 0, P0: 5.41, Alpha: 2.95, MaxBW: 1e18, FreqUnit: 1000}
	for seed := int64(0); seed < 6; seed++ {
		set := workload.New(m, 40+seed).Uniform(5, 200, 2500)
		sol, err := SolveWith(m, model, set, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		lb := exact.IdealShareLowerBound(m, model, set)
		if sol.Power < lb-1e-6*lb {
			t.Fatalf("seed %d: optflow %g beats the ideal-share bound %g", seed, sol.Power, lb)
		}
		r, ok, err := exact.Solve(m, model, set)
		if err != nil || !ok {
			t.Fatalf("seed %d: exact: ok=%v err=%v", seed, ok, err)
		}
		loads := r.Loads()
		b, err := model.Total(loads)
		if err != nil {
			t.Fatal(err)
		}
		// Compare dynamic-only (optflow excludes static).
		if sol.Power > b.Dynamic+1e-6*b.Dynamic {
			t.Fatalf("seed %d: optflow %g exceeds 1-MP optimum %g", seed, sol.Power, b.Dynamic)
		}
	}
}

// The Theorem 1 hand-built pattern is a valid max-MP flow, so the true
// optimum must be at or below its power — and within its vicinity, since
// the proof shows the pattern is order-optimal.
func TestOptimumBelowTheorem1Pattern(t *testing.T) {
	pp := 3
	flow, err := multipath.Theorem1Flow(pp, 1000)
	if err != nil {
		t.Fatal(err)
	}
	model := power.Theory(3)
	pat, err := flow.Power(model)
	if err != nil {
		t.Fatal(err)
	}
	p := 2 * pp
	m := mesh.MustNew(p, p)
	set := comm.Set{{ID: 0, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: p, V: p}, Rate: 1000}}
	sol, err := SolveWith(m, model, set, Options{MaxIters: 800, Tolerance: 1e-8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Power > pat.Total()+1e-6*pat.Total() {
		t.Fatalf("optimum %g above the Figure 4 pattern %g", sol.Power, pat.Total())
	}
	// The pattern is order-optimal: the proof bounds it by a constant
	// multiple (≈4–5× at this size) of the ideal-share floor, so the
	// true optimum sits within a one-digit factor below it.
	if sol.Power < pat.Total()/8 {
		t.Fatalf("optimum %g implausibly far below the order-optimal pattern %g", sol.Power, pat.Total())
	}
	// And never below the ideal-share lower bound.
	lb := exact.IdealShareLowerBound(m, model, set)
	if sol.Power < lb-1e-6*lb {
		t.Fatalf("optimum %g beats the ideal-share bound %g", sol.Power, lb)
	}
}

// Objective decreases monotonically across increasing iteration budgets.
func TestMoreIterationsNeverWorse(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitzContinuous()
	set := workload.New(m, 77).Uniform(15, 100, 2000)
	prev := math.Inf(1)
	for _, iters := range []int{1, 5, 20, 100} {
		sol, err := SolveWith(m, model, set, Options{MaxIters: iters, Tolerance: 1e-12}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Power > prev+1e-6 {
			t.Fatalf("power increased with more iterations: %g after %d", sol.Power, iters)
		}
		prev = sol.Power
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	m := mesh.MustNew(2, 2)
	bad := comm.Set{{ID: 1, Src: mesh.Coord{U: 9, V: 9}, Dst: mesh.Coord{U: 1, V: 1}, Rate: 1}}
	if _, err := SolveWith(m, power.Figure2(), bad, Options{}, nil); err == nil {
		t.Error("invalid set accepted")
	}
	linear := power.Figure2()
	linear.Alpha = 1
	good := comm.Set{{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1}}
	if _, err := SolveWith(m, linear, good, Options{}, nil); err == nil {
		t.Error("non-convex alpha accepted")
	}
}
