package deadlock

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

func routeAll(t *testing.T, h solve.Solver, m *mesh.Mesh, set comm.Set) route.Routing {
	t.Helper()
	r, err := h.Route(solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set}, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Pure XY routings have acyclic CDGs (the textbook dimension-order
// result).
func TestXYRoutingAcyclic(t *testing.T) {
	m := mesh.MustNew(8, 8)
	for seed := int64(0); seed < 10; seed++ {
		set := workload.New(m, seed).Uniform(40, 100, 1000)
		r := routeAll(t, heur.XY{}, m, set)
		g := BuildCDG(r)
		if cyc := g.FindCycle(); cyc != nil {
			t.Fatalf("seed %d: XY CDG has a cycle: %s", seed, g.DescribeCycle(cyc))
		}
	}
}

// The canonical 4-flow ring: four L-shaped flows chasing each other
// around a square deadlock. The CDG must report a cycle.
func TestRingDeadlockDetected(t *testing.T) {
	m := mesh.MustNew(3, 3)
	c := func(id, su, sv, du, dv int) comm.Comm {
		return comm.Comm{ID: id, Src: mesh.Coord{U: su, V: sv}, Dst: mesh.Coord{U: du, V: dv}, Rate: 1}
	}
	// Clockwise turns around the unit square (1,1)-(1,2)-(2,2)-(2,1).
	flows := []route.Flow{
		{Comm: c(1, 1, 1, 2, 2), Path: route.XY(mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 2, V: 2})}, // E then S
		{Comm: c(2, 1, 2, 2, 1), Path: route.YX(mesh.Coord{U: 1, V: 2}, mesh.Coord{U: 2, V: 1})}, // S then W
		{Comm: c(3, 2, 2, 1, 1), Path: route.XY(mesh.Coord{U: 2, V: 2}, mesh.Coord{U: 1, V: 1})}, // W then N
		{Comm: c(4, 2, 1, 1, 2), Path: route.YX(mesh.Coord{U: 2, V: 1}, mesh.Coord{U: 1, V: 2})}, // N then E
	}
	r := route.Routing{Topo: m, Flows: flows}
	g := BuildCDG(r)
	cyc := g.FindCycle()
	if cyc == nil {
		t.Fatal("clockwise ring not detected as a CDG cycle")
	}
	if len(cyc) != 4 {
		t.Errorf("cycle length %d, want 4 (%s)", len(cyc), g.DescribeCycle(cyc))
	}
	if !strings.Contains(g.DescribeCycle(cyc), "->") {
		t.Error("DescribeCycle did not render")
	}
	if g.Acyclic() {
		t.Error("Acyclic() contradicts FindCycle()")
	}
}

// Manhattan heuristics may create cyclic CDGs — that is exactly why the
// paper assumes an avoidance mechanism. The escape-channel assignment must
// then certify deadlock freedom: its class-0 sub-network is acyclic and
// the assignment passes validation, for every heuristic.
func TestEscapeChannelsCertifyAllHeuristics(t *testing.T) {
	m := mesh.MustNew(8, 8)
	for _, h := range []solve.Solver{heur.XY{}, heur.SG{}, heur.IG{}, heur.TB{}, heur.XYI{}, heur.PR{}} {
		for seed := int64(0); seed < 4; seed++ {
			set := workload.New(m, 100+seed).Uniform(30, 100, 1500)
			r := routeAll(t, h, m, set)
			a := EscapeChannels(r)
			if err := a.Validate(r); err != nil {
				t.Fatalf("%s seed %d: %v", h.Name(), seed, err)
			}
			eg := EscapeCDG(r, a)
			if cyc := eg.FindCycle(); cyc != nil {
				t.Fatalf("%s seed %d: escape CDG cyclic: %s", h.Name(), seed, eg.DescribeCycle(cyc))
			}
		}
	}
}

// The escape assignment puts XY-shaped paths entirely on class 0.
func TestEscapeChannelsXYPathsAllEscape(t *testing.T) {
	m := mesh.MustNew(8, 8)
	set := workload.New(m, 3).Uniform(20, 100, 1000)
	r := routeAll(t, heur.XY{}, m, set)
	a := EscapeChannels(r)
	for fi, classes := range a.Classes {
		for i, c := range classes {
			if c != 0 {
				t.Fatalf("flow %d hop %d: XY path assigned adaptive class", fi, i)
			}
		}
	}
}

// A YX path needs the adaptive class for its prefix: its vertical→
// horizontal turn is illegal on the escape network.
func TestEscapeChannelsYXPrefixAdaptive(t *testing.T) {
	m := mesh.MustNew(4, 4)
	g := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 3, V: 3}, Rate: 1}
	r := route.Routing{Topo: m, Flows: []route.Flow{{Comm: g, Path: route.YX(g.Src, g.Dst)}}}
	a := EscapeChannels(r)
	classes := a.Classes[0]
	// YX = S,S,E,E: the vertical prefix must be adaptive, the horizontal
	// suffix escape.
	if classes[0] != 1 || classes[1] != 1 {
		t.Errorf("vertical prefix classes %v, want adaptive", classes[:2])
	}
	if classes[2] != 0 || classes[3] != 0 {
		t.Errorf("horizontal suffix classes %v, want escape", classes[2:])
	}
	if err := a.Validate(r); err != nil {
		t.Fatal(err)
	}
}

// Validation rejects corrupted assignments.
func TestValidateRejectsCorrupt(t *testing.T) {
	m := mesh.MustNew(4, 4)
	g := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 3, V: 3}, Rate: 1}
	r := route.Routing{Topo: m, Flows: []route.Flow{{Comm: g, Path: route.YX(g.Src, g.Dst)}}}
	a := EscapeChannels(r)

	bad := Assignment{Classes: [][]int{{0, 0, 0, 0}}} // vertical hops on escape, then horizontal: V→H violation
	if err := bad.Validate(r); err == nil {
		t.Error("XY-violating escape assignment accepted")
	}
	bad2 := Assignment{Classes: [][]int{{1, 1, 0, 7}}}
	if err := bad2.Validate(r); err == nil {
		t.Error("invalid class accepted")
	}
	bad3 := Assignment{Classes: [][]int{{1, 1, 0, 1}}} // escape → adaptive switch
	if err := bad3.Validate(r); err == nil {
		t.Error("class downgrade accepted")
	}
	short := Assignment{Classes: [][]int{{1, 1}}}
	if err := short.Validate(r); err == nil {
		t.Error("short class vector accepted")
	}
	none := Assignment{}
	if err := none.Validate(r); err == nil {
		t.Error("empty assignment accepted")
	}
	_ = a
}

// Empty routings are trivially acyclic.
func TestEmptyRouting(t *testing.T) {
	m := mesh.MustNew(2, 2)
	g := BuildCDG(route.Routing{Topo: m})
	if !g.Acyclic() {
		t.Error("empty CDG not acyclic")
	}
	if g.DescribeCycle(nil) != "acyclic" {
		t.Error("DescribeCycle(nil) wrong")
	}
}
