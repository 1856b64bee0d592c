package heur

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// SG avoids an obviously congested corridor: with a heavy flow occupying
// the top row, a second flow between the same endpoints must route around
// it.
func TestSGAvoidsLoadedLinks(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitz()
	set := comm.Set{
		{ID: 0, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 4}, Rate: 3000}, // pins row 1
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 4}, Rate: 1000},
	}
	res := solveOrDie(t, SG{}, solve.Instance{Mesh: m, Model: model, Comms: set})
	if !res.Feasible {
		t.Fatalf("SG infeasible: %v", res.Err)
	}
	// The 1000 flow must not share row-1 links with the 3000 flow.
	for _, f := range res.Routing.Flows {
		if f.Comm.ID != 1 {
			continue
		}
		for _, l := range f.Path {
			if l.From.U == 1 && l.To.U == 1 {
				t.Errorf("SG pushed the light flow onto the congested row: %v", l)
			}
		}
	}
}

// SG's documented tie-breaking: on an empty mesh the path hugs the
// source-sink diagonal rather than behaving like XY or YX.
func TestSGTieBreakHugsDiagonal(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	g := comm.Comm{ID: 0, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 5, V: 5}, Rate: 100}
	res := solveOrDie(t, SG{}, solve.Instance{Mesh: m, Model: model, Comms: comm.Set{g}})
	p := res.Routing.Flows[0].Path
	for _, l := range p {
		// On the exact diagonal, deviation never exceeds one half-step:
		// |u−v| ≤ 1 at every visited core.
		if d := l.To.U - l.To.V; d > 1 || d < -1 {
			t.Fatalf("SG strayed from the diagonal at %v (path %v)", l.To, p)
		}
	}
}

// IG's virtual pre-routing must cancel exactly: add followed by remove
// leaves the tracker empty.
func TestIdealShareRoundTrip(t *testing.T) {
	m := mesh.MustNew(8, 8)
	loads := route.NewLoadTrackerTopo(m)
	g := comm.Comm{ID: 0, Src: mesh.Coord{U: 2, V: 2}, Dst: mesh.Coord{U: 6, V: 5}, Rate: 1234}
	addIdealShare(m, loads, new(heurScratch), g, +1)
	if loads.MaxLoad() == 0 {
		t.Fatal("pre-routing added no load")
	}
	// Total virtual load = δ·ℓ (δ per diagonal crossing, ℓ crossings).
	total := 0.0
	for _, l := range loads.LoadsView() {
		total += l
	}
	if want := g.Rate * float64(g.Length()); math.Abs(total-want) > 1e-6 {
		t.Errorf("virtual volume %g, want %g", total, want)
	}
	addIdealShare(m, loads, new(heurScratch), g, -1)
	if loads.MaxLoad() > 1e-9 {
		t.Errorf("residual load %g after removing pre-routing", loads.MaxLoad())
	}
}

// IG beats SG on a scenario engineered to punish myopia: a wall of traffic
// sits just beyond the greedy-optimal first hops, which the lower bound
// sees and plain load-greediness does not. At minimum, IG must never be
// structurally invalid and should match SG's feasibility here.
func TestIGSeesBeyondNextHop(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := comm.Set{
		// Wall: saturate the column-2 vertical corridor rows 1..4.
		{ID: 0, Src: mesh.Coord{U: 1, V: 2}, Dst: mesh.Coord{U: 5, V: 2}, Rate: 3400},
		// Crossing flow from (1,1) to (5,3).
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 5, V: 3}, Rate: 3400},
	}
	ig := solveOrDie(t, IG{}, solve.Instance{Mesh: m, Model: model, Comms: set})
	if !ig.Feasible {
		t.Fatalf("IG infeasible: %v", ig.Err)
	}
	// The crossing flow must not ride any of the wall's vertical links.
	for _, f := range ig.Routing.Flows {
		if f.Comm.ID != 1 {
			continue
		}
		for _, l := range f.Path {
			if l.From.V == 2 && l.To.V == 2 {
				t.Errorf("IG stacked the crossing flow on the wall at %v", l)
			}
		}
	}
}

// The greedy walker panics only on impossible geometry; for every valid
// source/destination it terminates with a valid path even under heavy
// pre-existing load.
func TestGreedyPathAlwaysTerminates(t *testing.T) {
	m := mesh.MustNew(8, 8)
	loads := route.NewLoadTrackerTopo(m)
	for _, l := range m.Links() {
		loads.Add(l, 5000) // uniformly overloaded
	}
	g := comm.Comm{ID: 0, Src: mesh.Coord{U: 8, V: 8}, Dst: mesh.Coord{U: 1, V: 1}, Rate: 1}
	p := greedyPathInto(nil, g, func(cand mesh.Link, _ mesh.Coord) float64 {
		return loads.Load(cand)
	})
	if err := p.Validate(m, g.Src, g.Dst); err != nil {
		t.Fatal(err)
	}
}
