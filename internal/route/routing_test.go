package route

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
)

func c(id int, su, sv, du, dv int, rate float64) comm.Comm {
	return comm.Comm{ID: id, Src: mesh.Coord{U: su, V: sv}, Dst: mesh.Coord{U: du, V: dv}, Rate: rate}
}

// The Section 3.5 example, literally: 2×2 mesh, Pleak=0, P0=1, α=3, BW=4,
// γ1=(C11,C22,1) and γ2=(C11,C22,3). XY burns 128, best 1-MP 56,
// best 2-MP 32 (Figure 2).
func TestFigure2Powers(t *testing.T) {
	m := mesh.MustNew(2, 2)
	model := power.Figure2()
	g1 := c(1, 1, 1, 2, 2, 1)
	g2 := c(2, 1, 1, 2, 2, 3)

	xy := Routing{Topo: m, Flows: []Flow{
		{Comm: g1, Path: XY(g1.Src, g1.Dst)},
		{Comm: g2, Path: XY(g2.Src, g2.Dst)},
	}}
	res := Evaluate(xy, model)
	if !res.Feasible || math.Abs(res.Power.Total()-128) > 1e-9 {
		t.Fatalf("XY power = %g (feasible=%v), want 128", res.Power.Total(), res.Feasible)
	}

	mp1 := Routing{Topo: m, Flows: []Flow{
		{Comm: g1, Path: XY(g1.Src, g1.Dst)},
		{Comm: g2, Path: YX(g2.Src, g2.Dst)},
	}}
	res = Evaluate(mp1, model)
	if !res.Feasible || math.Abs(res.Power.Total()-56) > 1e-9 {
		t.Fatalf("1-MP power = %g, want 56 (2·(1³+3³))", res.Power.Total())
	}

	// 2-MP: split γ2 into 1+2; route γ1+γ2.1... paper: each link carries 2.
	parts, err := g2.Split([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mp2 := Routing{Topo: m, Flows: []Flow{
		{Comm: g1, Path: XY(g1.Src, g1.Dst)},
		{Comm: parts[0], Path: XY(g2.Src, g2.Dst)},
		{Comm: parts[1], Path: YX(g2.Src, g2.Dst)},
	}}
	res = Evaluate(mp2, model)
	if !res.Feasible || math.Abs(res.Power.Total()-32) > 1e-9 {
		t.Fatalf("2-MP power = %g, want 32 (2·(2³+2³))", res.Power.Total())
	}
	if err := mp2.Validate(comm.Set{g1, g2}, 2); err != nil {
		t.Fatalf("2-MP routing invalid: %v", err)
	}
	if err := mp2.Validate(comm.Set{g1, g2}, 1); err == nil {
		t.Fatal("2-MP accepted under 1-MP limit")
	}
}

func TestValidateCatchesRateMismatch(t *testing.T) {
	m := mesh.MustNew(3, 3)
	g := c(1, 1, 1, 2, 2, 10)
	r := Routing{Topo: m, Flows: []Flow{
		{Comm: comm.Comm{ID: 1, Src: g.Src, Dst: g.Dst, Rate: 6}, Path: XY(g.Src, g.Dst)},
	}}
	if err := r.Validate(comm.Set{g}, 0); err == nil {
		t.Error("partial rate accepted")
	}
}

func TestValidateCatchesUnknownAndMissing(t *testing.T) {
	m := mesh.MustNew(3, 3)
	g := c(1, 1, 1, 2, 2, 10)
	unknown := Routing{Topo: m, Flows: []Flow{
		{Comm: c(9, 1, 1, 2, 2, 10), Path: XY(mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 2, V: 2})},
	}}
	if err := unknown.Validate(comm.Set{g}, 0); err == nil {
		t.Error("unknown flow id accepted")
	}
	missing := Routing{Topo: m}
	if err := missing.Validate(comm.Set{g}, 0); err == nil {
		t.Error("uncovered communication accepted")
	}
}

func TestValidateCatchesWrongEndpoints(t *testing.T) {
	m := mesh.MustNew(3, 3)
	g := c(1, 1, 1, 2, 2, 10)
	r := Routing{Topo: m, Flows: []Flow{
		{Comm: c(1, 1, 1, 3, 3, 10), Path: XY(mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 3, V: 3})},
	}}
	if err := r.Validate(comm.Set{g}, 0); err == nil {
		t.Error("wrong endpoints accepted")
	}
}

// Conservation: for any single-path routing, the loads sum to Σ δi·ℓi.
func TestLoadConservation(t *testing.T) {
	m := grid()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var set comm.Set
		var flows []Flow
		for i := 0; i < 20; i++ {
			src, dst := randCoord(rng, m), randCoord(rng, m)
			if src == dst {
				continue
			}
			g := comm.Comm{ID: i, Src: src, Dst: dst, Rate: float64(rng.Intn(1000) + 1)}
			set = append(set, g)
			p := XY(src, dst)
			if rng.Intn(2) == 0 {
				p = YX(src, dst)
			}
			flows = append(flows, Flow{Comm: g, Path: p})
		}
		r := Routing{Topo: m, Flows: flows}
		loads := r.Loads()
		sum := 0.0
		for _, l := range loads {
			sum += l
		}
		if want := set.TotalVolume(); math.Abs(sum-want) > 1e-6 {
			t.Fatalf("trial %d: load sum %g, want %g", trial, sum, want)
		}
	}
}

func TestEvaluateInfeasible(t *testing.T) {
	m := mesh.MustNew(2, 2)
	g := c(1, 1, 1, 2, 2, 10) // exceeds BW=4 of the Figure 2 model
	r := Routing{Topo: m, Flows: []Flow{{Comm: g, Path: XY(g.Src, g.Dst)}}}
	res := Evaluate(r, power.Figure2())
	if res.Feasible || res.Err == nil {
		t.Fatal("overloaded routing reported feasible")
	}
	if got := res.MaxLoad(); got != 10 {
		t.Errorf("MaxLoad = %g, want 10", got)
	}
}
