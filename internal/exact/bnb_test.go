package exact

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/workload"
)

// tightModel is KimHorowitz with the top two frequency levels removed:
// MaxBW 2000 makes moderate workloads clash, exercising the infeasible
// and barely-feasible corners the loose model never reaches.
func tightModel() power.Model {
	return power.Model{
		Pleak: 16.9, P0: 5.41, Alpha: 2.95,
		Freqs: []float64{1000, 2000}, MaxBW: 2000, FreqUnit: 1000,
	}
}

func samePower(a, b float64) bool {
	tol := 1e-9
	if m := math.Abs(a); m > 1 {
		tol *= m
	}
	return math.Abs(a-b) <= tol
}

// sameRouting reports flow-by-flow, link-by-link equality.
func sameRouting(a, b route.Routing) bool {
	if len(a.Flows) != len(b.Flows) {
		return false
	}
	for i := range a.Flows {
		if a.Flows[i].Comm.ID != b.Flows[i].Comm.ID ||
			len(a.Flows[i].Path) != len(b.Flows[i].Path) {
			return false
		}
		for t := range a.Flows[i].Path {
			if a.Flows[i].Path[t] != b.Flows[i].Path[t] {
				return false
			}
		}
	}
	return true
}

// The rebuilt solver must agree with the preserved reference on every
// instance: same feasibility verdict, same optimal power — across loose
// and tight bandwidth, square and corridor meshes, feasible and
// infeasible workloads.
func TestSolveMatchesReference(t *testing.T) {
	type modelCase struct {
		name       string
		model      power.Model
		n          int
		wmin, wmax float64
	}
	cases := []modelCase{
		{"kim", power.KimHorowitz(), 5, 200, 1200},
		{"tight", tightModel(), 4, 600, 1400},
	}
	w := NewWorkspace()
	for _, dims := range [][2]int{{3, 3}, {4, 4}, {2, 5}} {
		m := mesh.MustNew(dims[0], dims[1])
		for _, mc := range cases {
			gen := workload.New(m, 0)
			for seed := int64(1); seed <= 5; seed++ {
				gen.Reseed(900 + seed)
				set := gen.Uniform(mc.n, mc.wmin, mc.wmax)
				rRef, okRef, errRef := refSolve(m, mc.model, set)
				if errRef != nil {
					continue // reference truncated; nothing to compare
				}
				r, ok, st, err := w.Solve(m, mc.model, set, Options{})
				if err != nil {
					t.Fatalf("%dx%d %s seed %d: new solver error: %v", dims[0], dims[1], mc.name, seed, err)
				}
				if ok != okRef {
					t.Fatalf("%dx%d %s seed %d: feasible=%v, reference says %v", dims[0], dims[1], mc.name, seed, ok, okRef)
				}
				if !ok {
					continue
				}
				pNew := route.Evaluate(r, mc.model).Power.Total()
				pRef := route.Evaluate(rRef, mc.model).Power.Total()
				if !samePower(pNew, pRef) {
					t.Fatalf("%dx%d %s seed %d: power %.12g, reference %.12g (states=%d)",
						dims[0], dims[1], mc.name, seed, pNew, pRef, st.States)
				}
				if err := r.Validate(set, 1); err != nil {
					t.Fatalf("%dx%d %s seed %d: %v", dims[0], dims[1], mc.name, seed, err)
				}
			}
		}
	}
}

// The routing is byte-identical at every worker count: same flows, same
// links, bit-equal power. This is the determinism contract that makes OPT
// usable as a differential baseline regardless of GOMAXPROCS.
func TestRoutingByteIdenticalAcrossWorkers(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitz()
	gen := workload.New(m, 0)
	for seed := int64(1); seed <= 4; seed++ {
		gen.Reseed(40 + seed)
		set := gen.Uniform(6, 200, 1200)
		var base route.Routing
		var basePower float64
		baseOK := false
		for _, workers := range []int{1, 2, 8} {
			r, ok, _, err := NewWorkspace().Solve(m, model, set, Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if workers == 1 {
				baseOK = ok
				if ok {
					base = r.Clone()
					basePower = route.Evaluate(base, model).Power.Total()
				}
				continue
			}
			if ok != baseOK {
				t.Fatalf("seed %d workers %d: feasible=%v, serial says %v", seed, workers, ok, baseOK)
			}
			if !ok {
				continue
			}
			if !sameRouting(r, base) {
				t.Fatalf("seed %d workers %d: routing differs from serial", seed, workers)
			}
			if p := route.Evaluate(r, model).Power.Total(); p != basePower {
				t.Fatalf("seed %d workers %d: power %.17g != serial %.17g", seed, workers, p, basePower)
			}
		}
	}
}

// A big-enough instance to split into many tasks, solved with 8 workers
// sharing the incumbent — the -race CI job runs this to certify the
// atomic/mutex incumbent and the shared task cursor.
func TestParallelSharedIncumbent(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitz()
	set := workload.New(m, 7).Uniform(7, 100, 900)
	r8, ok, st, err := NewWorkspace().Solve(m, model, set, Options{Workers: 8})
	if err != nil || !ok {
		t.Fatalf("parallel solve: ok=%v err=%v", ok, err)
	}
	if st.Workers != 8 || st.Tasks < 2 {
		t.Fatalf("expected a real parallel split, got workers=%d tasks=%d", st.Workers, st.Tasks)
	}
	r1, ok1, _, err1 := NewWorkspace().Solve(m, model, set, Options{Workers: 1})
	if err1 != nil || !ok1 {
		t.Fatalf("serial solve: ok=%v err=%v", ok1, err1)
	}
	if !sameRouting(r8, r1) {
		t.Fatal("parallel routing differs from serial")
	}
}

// A search that completes on exactly its state budget is not truncated —
// the bug in the old solver (any search reaching MaxStates states was
// reported as exceeded, even when it had in fact finished). Truncation is
// now tracked by denied nodes, so budget == states succeeds and
// budget == states−1 fails.
func TestMaxStatesBoundary(t *testing.T) {
	m := mesh.MustNew(3, 3)
	model := power.KimHorowitz()
	set := workload.New(m, 11).Uniform(5, 200, 900)
	w := NewWorkspace()
	_, ok, st, err := w.Solve(m, model, set, Options{Workers: 1})
	if err != nil || !ok {
		t.Fatalf("baseline solve: ok=%v err=%v", ok, err)
	}
	if st.States < 2 {
		t.Fatalf("degenerate baseline: %d states", st.States)
	}
	_, ok2, st2, err2 := w.Solve(m, model, set, Options{Workers: 1, MaxStates: int(st.States)})
	if err2 != nil || !ok2 || st2.Truncated {
		t.Fatalf("budget == states must succeed: ok=%v truncated=%v err=%v", ok2, st2.Truncated, err2)
	}
	if st2.States != st.States {
		t.Fatalf("serial search not reproducible: %d then %d states", st.States, st2.States)
	}
	_, _, st3, err3 := w.Solve(m, model, set, Options{Workers: 1, MaxStates: int(st.States) - 1})
	if err3 == nil || !st3.Truncated {
		t.Fatalf("budget == states-1 must truncate: truncated=%v err=%v", st3.Truncated, err3)
	}
}

// Reusing one workspace across instances of different meshes and models
// produces bit-identical results to fresh workspaces.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	meshes := []*mesh.Mesh{mesh.MustNew(3, 3), mesh.MustNew(2, 5), mesh.MustNew(4, 4)}
	models := []power.Model{power.KimHorowitz(), tightModel()}
	w := NewWorkspace()
	for i := 0; i < 9; i++ {
		m := meshes[i%len(meshes)]
		model := models[i%len(models)]
		set := workload.New(m, int64(300+i)).Uniform(4, 200, 1100)
		rReuse, okReuse, _, errReuse := w.Solve(m, model, set, Options{})
		rFresh, okFresh, _, errFresh := NewWorkspace().Solve(m, model, set, Options{})
		if (errReuse == nil) != (errFresh == nil) || okReuse != okFresh {
			t.Fatalf("instance %d: reuse ok=%v err=%v, fresh ok=%v err=%v", i, okReuse, errReuse, okFresh, errFresh)
		}
		if !okReuse {
			continue
		}
		if !sameRouting(rReuse, rFresh) {
			t.Fatalf("instance %d: reused workspace routing differs from fresh", i)
		}
		pr := route.Evaluate(rReuse, model).Power.Total()
		pf := route.Evaluate(rFresh, model).Power.Total()
		if pr != pf {
			t.Fatalf("instance %d: power %.17g (reuse) != %.17g (fresh)", i, pr, pf)
		}
	}
}

// Feasible instances are incumbent-seeded, and the seed's exact power
// never beats the optimum it primes.
func TestSeedStats(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitz()
	for seed := int64(1); seed <= 5; seed++ {
		set := workload.New(m, 70+seed).Uniform(5, 200, 1000)
		r, ok, st, err := NewWorkspace().Solve(m, model, set, Options{})
		if err != nil || !ok {
			t.Fatalf("seed %d: ok=%v err=%v", seed, ok, err)
		}
		if !st.Seeded {
			t.Fatalf("seed %d: feasible instance not incumbent-seeded", seed)
		}
		opt := route.Evaluate(r, model).Power.Total()
		if st.SeedPower < opt-1e-9 {
			t.Fatalf("seed %d: seed power %g beats optimum %g", seed, st.SeedPower, opt)
		}
	}
}

// The empty set routes to an empty feasible routing.
func TestSolveEmptySet(t *testing.T) {
	m := mesh.MustNew(3, 3)
	r, ok, st, err := NewWorkspace().Solve(m, power.KimHorowitz(), nil, Options{})
	if err != nil || !ok || len(r.Flows) != 0 {
		t.Fatalf("empty set: ok=%v flows=%d err=%v", ok, len(r.Flows), err)
	}
	if st.Seeded {
		t.Fatal("empty set reported as seeded")
	}
}
