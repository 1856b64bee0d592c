package heur

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/solve"
)

// PR must reduce every communication to exactly one Manhattan path.
func TestPRSinglePathInvariant(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	for seed := int64(0); seed < 6; seed++ {
		set := randomSet(m, 100+seed, 35, 100, 2500)
		in := solve.Instance{Mesh: m, Model: model, Comms: set}
		r, err := PR{}.Route(in, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(set, 1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r.Flows) != len(set) {
			t.Fatalf("seed %d: %d flows for %d comms", seed, len(r.Flows), len(set))
		}
	}
}

// With one communication and no competitors, PR keeps a shortest path and
// yields the minimal possible power.
func TestPRSingleCommOptimal(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	g := comm.Comm{ID: 0, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 4, V: 5}, Rate: 2000}
	res := solveOrDie(t, PR{}, solve.Instance{Mesh: m, Model: model, Comms: comm.Set{g}})
	if !res.Feasible {
		t.Fatal("single comm infeasible under PR")
	}
	linkP, err := model.LinkPower(2000)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(g.Length()) * linkP; res.Power.Total() != want {
		t.Errorf("PR power %g, want %g", res.Power.Total(), want)
	}
}

// Straight-line communications have a single path from the start; PR must
// leave them untouched and never panic on them.
func TestPRStraightLines(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := comm.Set{
		{ID: 0, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 8}, Rate: 1000},
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 8, V: 1}, Rate: 1000},
		{ID: 2, Src: mesh.Coord{U: 3, V: 2}, Dst: mesh.Coord{U: 3, V: 7}, Rate: 500},
	}
	res := solveOrDie(t, PR{}, solve.Instance{Mesh: m, Model: model, Comms: set})
	if !res.Feasible {
		t.Fatalf("straight lines infeasible: %v", res.Err)
	}
	for _, f := range res.Routing.Flows {
		if f.Path.Bends() != 0 {
			t.Errorf("straight comm %d routed with bends: %v", f.Comm.ID, f.Path)
		}
	}
}

// Two equal heavy flows crossing the same bounding box: PR's removals must
// steer them onto disjoint link sets (the Section 1 motivation).
func TestPRSeparatesCompetingFlows(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitz()
	set := comm.Set{
		{ID: 0, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 4, V: 4}, Rate: 3400},
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 4, V: 4}, Rate: 3400},
	}
	res := solveOrDie(t, PR{}, solve.Instance{Mesh: m, Model: model, Comms: set})
	if !res.Feasible {
		t.Fatalf("PR failed to separate flows: %v", res.Err)
	}
	shared := map[int]int{}
	for _, f := range res.Routing.Flows {
		for _, l := range f.Path {
			shared[m.LinkID(l)]++
		}
	}
	for id, n := range shared {
		if n > 1 {
			t.Errorf("link %v shared by both heavy flows", m.LinkByID(id))
		}
	}
}

// The StaticShares ablation still yields valid single-path routings, but
// its optimistic accounting should not beat the paper's redistribution on
// aggregate feasibility.
func TestPRStaticSharesVariant(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	failsDefault, failsStatic := 0, 0
	for seed := int64(0); seed < 15; seed++ {
		set := randomSet(m, 300+seed, 60, 100, 1500)
		in := solve.Instance{Mesh: m, Model: model, Comms: set}
		r, err := PR{StaticShares: true}.Route(in, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(set, 1); err != nil {
			t.Fatalf("seed %d: static-shares routing invalid: %v", seed, err)
		}
		def, err := solveWith(PR{}, in, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stat, err := solveWith(PR{StaticShares: true}, in, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !def.Feasible {
			failsDefault++
		}
		if !stat.Feasible {
			failsStatic++
		}
	}
	if failsDefault > failsStatic {
		t.Logf("note: redistribution failed %d vs static %d on this sample", failsDefault, failsStatic)
	}
}

// PR is deterministic: identical instances produce identical routings.
func TestPRDeterministic(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := randomSet(m, 77, 25, 100, 3000)
	in := solve.Instance{Mesh: m, Model: model, Comms: set}
	a, err := PR{}.Route(in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PR{}.Route(in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Flows {
		if pathKey(a.Flows[i].Path) != pathKey(b.Flows[i].Path) {
			t.Fatalf("flow %d differs between runs", i)
		}
	}
}

// A communication whose shares round to zero load never reaches the
// hot-link heap, so the heap runs dry while it still has several paths:
// PR must name it in an error instead of emitting an unchecked path.
func TestPRDryHeapNamesStuckComm(t *testing.T) {
	m := mesh.MustNew(4, 4)
	set := comm.Set{
		{ID: 0, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 4}, Rate: 1000},
		{ID: 7, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 3, V: 3}, Rate: 5e-324},
	}
	_, err := PR{}.Route(solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set}, solve.Options{})
	if err == nil || !strings.Contains(err.Error(), "communication 7 ") {
		t.Fatalf("err = %v, want one naming communication 7", err)
	}
}
