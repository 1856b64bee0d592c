package heur

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/topo/torus"
	"repro/internal/workload"
)

// figure2Instance is the running example of Section 3.5: 2×2 mesh,
// Pleak=0, P0=1, α=3, BW=4, γ1=(C11,C22,1), γ2=(C11,C22,3).
func figure2Instance() solve.Instance {
	return solve.Instance{
		Mesh:  mesh.MustNew(2, 2),
		Model: power.Figure2(),
		Comms: comm.Set{
			{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1},
			{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 3},
		},
	}
}

// withBest is the six paper heuristics followed by BEST.
var withBest = append(slices.Clip(paperHeuristics), Best{})

// solveWith routes the instance with h under o and evaluates the routing.
func solveWith(h solve.Solver, in solve.Instance, o solve.Options) (route.Result, error) {
	r, err := h.Route(in, o)
	if err != nil {
		return route.Result{}, err
	}
	return route.Evaluate(r, in.Model), nil
}

func solveOrDie(t *testing.T, h solve.Solver, in solve.Instance) route.Result {
	t.Helper()
	res, err := solveWith(h, in, solve.Options{})
	if err != nil {
		t.Fatalf("%s: %v", h.Name(), err)
	}
	return res
}

// On the Figure 2 instance XY burns 128 while every Manhattan heuristic
// finds the optimal 1-MP routing of power 56 = 2·(1³+3³).
func TestFigure2AllHeuristics(t *testing.T) {
	in := figure2Instance()
	want := map[string]float64{
		"XY": 128, "SG": 56, "IG": 56, "TB": 56, "XYI": 56, "PR": 56, "BEST": 56,
	}
	hs := withBest
	for _, h := range hs {
		res := solveOrDie(t, h, in)
		if !res.Feasible {
			t.Errorf("%s: infeasible on Figure 2 instance: %v", h.Name(), res.Err)
			continue
		}
		if got := res.Power.Total(); math.Abs(got-want[h.Name()]) > 1e-9 {
			t.Errorf("%s: power = %g, want %g", h.Name(), got, want[h.Name()])
		}
	}
}

// Every heuristic always yields a structurally valid 1-MP routing on
// random instances (all quadrants, mixed weights), regardless of
// feasibility.
func TestAllHeuristicsProduceValidRoutings(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	hs := withBest
	for seed := int64(0); seed < 8; seed++ {
		gen := workload.New(m, seed)
		set := gen.Uniform(30, 100, 2500)
		in := solve.Instance{Mesh: m, Model: model, Comms: set}
		for _, h := range hs {
			r, err := h.Route(in, solve.Options{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, h.Name(), err)
			}
			if err := r.Validate(set, 1); err != nil {
				t.Fatalf("seed %d %s: invalid routing: %v", seed, h.Name(), err)
			}
		}
	}
}

// BEST is never worse than any individual heuristic.
func TestBestDominates(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	for seed := int64(0); seed < 10; seed++ {
		set := workload.New(m, seed).Uniform(25, 100, 2000)
		in := solve.Instance{Mesh: m, Model: model, Comms: set}
		best := solveOrDie(t, Best{}, in)
		for _, h := range paperHeuristics {
			res := solveOrDie(t, h, in)
			if !res.Feasible {
				continue
			}
			if !best.Feasible {
				t.Fatalf("seed %d: %s feasible but BEST infeasible", seed, h.Name())
			}
			if best.Power.Total() > res.Power.Total()+1e-9 {
				t.Fatalf("seed %d: BEST power %g > %s power %g",
					seed, best.Power.Total(), h.Name(), res.Power.Total())
			}
		}
	}
}

// The headline claim of Section 6.4: Manhattan routing finds solutions far
// more often than XY. On congested random instances, PR/XYI should succeed
// at least as often as XY, and strictly more in aggregate.
func TestManhattanBeatsXYOnSuccessRate(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	wins := map[string]int{}
	trials := 40
	for seed := int64(0); seed < int64(trials); seed++ {
		set := workload.New(m, 1000+seed).Uniform(40, 100, 1500)
		in := solve.Instance{Mesh: m, Model: model, Comms: set}
		for _, h := range []solve.Solver{XY{}, XYI{}, PR{}, Best{}} {
			if res := solveOrDie(t, h, in); res.Feasible {
				wins[h.Name()]++
			}
		}
	}
	if wins["PR"] < wins["XY"] || wins["XYI"] < wins["XY"] {
		t.Errorf("success counts: %v — Manhattan heuristics should beat XY", wins)
	}
	if wins["BEST"] <= wins["XY"] && wins["XY"] < trials {
		t.Errorf("BEST (%d) should succeed more often than XY (%d)", wins["BEST"], wins["XY"])
	}
}

// Every heuristic and BEST registers under its paper abbreviation.
func TestByName(t *testing.T) {
	for _, h := range withBest {
		s, err := solve.Lookup(h.Name())
		if err != nil {
			t.Fatalf("Lookup(%s): %v", h.Name(), err)
		}
		if s.Name() != h.Name() {
			t.Errorf("Lookup(%s).Name() = %s", h.Name(), s.Name())
		}
	}
}

// Every heuristic validates its instance on a direct call, as the
// registry does: a missing platform, an off-mesh communication and a
// torus are errors, not panics, and a mesh spelled as a topology routes
// exactly like the Mesh spelling.
func TestSolveRejectsInvalidInstance(t *testing.T) {
	tor, err := torus.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := figure2Instance()
	off := in
	off.Comms = comm.Set{{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 9, V: 9}, Rate: 1}}
	for _, h := range append(slices.Clip(withBest), SA{}) {
		if _, err := h.Route(solve.Instance{}, solve.Options{}); err == nil {
			t.Errorf("%s: nil mesh accepted", h.Name())
		}
		if _, err := h.Route(off, solve.Options{}); err == nil {
			t.Errorf("%s: off-mesh communication accepted", h.Name())
		}
		onTorus := solve.Instance{Topo: tor, Model: in.Model, Comms: in.Comms}
		if _, err := h.Route(onTorus, solve.Options{}); err == nil || !strings.Contains(err.Error(), "torus:4x4") {
			t.Errorf("%s on a torus: err = %v, want an error naming torus:4x4", h.Name(), err)
		}
		want, err := h.Route(in, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Route(solve.Instance{Topo: in.Mesh, Model: in.Model, Comms: in.Comms}, solve.Options{})
		if err != nil {
			t.Fatalf("%s on a Topo-spelled mesh: %v", h.Name(), err)
		}
		if fmt.Sprint(got.Flows) != fmt.Sprint(want.Flows) {
			t.Errorf("%s: Topo-spelled mesh routes %v, Mesh spelling %v", h.Name(), got.Flows, want.Flows)
		}
	}
}

// Single-communication instances: every heuristic must find a feasible
// minimal routing (one shortest path, power = ℓ·P(δ)).
func TestSingleCommunication(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	g := comm.Comm{ID: 0, Src: mesh.Coord{U: 2, V: 3}, Dst: mesh.Coord{U: 6, V: 7}, Rate: 1200}
	in := solve.Instance{Mesh: m, Model: model, Comms: comm.Set{g}}
	linkP, err := model.LinkPower(1200)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(g.Length()) * linkP
	for _, h := range withBest {
		res := solveOrDie(t, h, in)
		if !res.Feasible {
			t.Errorf("%s: single comm infeasible", h.Name())
			continue
		}
		if math.Abs(res.Power.Total()-want) > 1e-9 {
			t.Errorf("%s: power %g, want %g", h.Name(), res.Power.Total(), want)
		}
	}
}

// Two heavy comms from the same source to the same sink must not share
// links when that overloads them: the Section 1 motivating example.
func TestHeuristicsSeparateHeavyTwins(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz() // BW 3500
	set := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 2, V: 2}, Dst: mesh.Coord{U: 5, V: 5}, Rate: 3000},
		{ID: 2, Src: mesh.Coord{U: 2, V: 2}, Dst: mesh.Coord{U: 5, V: 5}, Rate: 3000},
	}
	in := solve.Instance{Mesh: m, Model: model, Comms: set}
	// XY stacks 6000 Mb/s on each link: must fail.
	if res := solveOrDie(t, XY{}, in); res.Feasible {
		t.Error("XY should be infeasible on heavy twins")
	}
	for _, h := range []solve.Solver{SG{}, IG{}, TB{}, XYI{}, PR{}} {
		if res := solveOrDie(t, h, in); !res.Feasible {
			t.Errorf("%s: failed to separate heavy twins: %v", h.Name(), res.Err)
		}
	}
}
