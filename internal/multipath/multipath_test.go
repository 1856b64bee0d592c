package multipath

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

// The Figure 4 pattern conserves flow at every size.
func TestTheorem1FlowConservation(t *testing.T) {
	for pp := 1; pp <= 8; pp++ {
		f, err := Theorem1Flow(pp, 1000)
		if err != nil {
			t.Fatalf("pPrime=%d: %v", pp, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("pPrime=%d: %v", pp, err)
		}
	}
	if _, err := Theorem1Flow(0, 1); err == nil {
		t.Error("pPrime=0 accepted")
	}
}

// The proof's bound: Pmax ≤ 2·2·K^α·Σ 1/k^{α−1} ≤ 8·K^α for α=3, while
// PXY = 2(p−1)K^α, so the ratio exceeds (p−1)/4 and grows with p.
func TestTheorem1RatioGrowsLinearly(t *testing.T) {
	alpha := 3.0
	prev := 0.0
	for _, pp := range []int{2, 4, 8, 16} {
		ratio, err := Theorem1Ratio(pp, alpha)
		if err != nil {
			t.Fatal(err)
		}
		p := float64(2 * pp)
		if ratio <= prev {
			t.Errorf("ratio not increasing: p=%g ratio=%g prev=%g", p, ratio, prev)
		}
		if ratio < (p-1)/4 {
			t.Errorf("p=%g: ratio %g below the proof's (p−1)/4 floor", p, ratio)
		}
		prev = ratio
	}
}

// The pattern's power matches the proof's closed form:
// Pmax/2 = Σ_{k=1..p'} k·h_k^α + Σ_{k<p'} Σ_j (r_{k,j}^α + d_{k,j}^α).
func TestTheorem1FlowPowerClosedForm(t *testing.T) {
	pp := 4
	k := 1.0
	alpha := 3.0
	f, err := Theorem1Flow(pp, k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Power(power.Theory(alpha))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for kk := 1; kk <= pp; kk++ {
		h := k / float64(kk)
		want += float64(kk) * math.Pow(h, alpha)
	}
	for kk := 1; kk <= pp-1; kk++ {
		for j := 1; j <= kk; j++ {
			r := float64(kk+1-j) / float64(kk*(kk+1)) * k
			d := float64(j) / float64(kk*(kk+1)) * k
			want += math.Pow(r, alpha) + math.Pow(d, alpha)
		}
	}
	want *= 2
	if math.Abs(b.Total()-want) > 1e-9 {
		t.Fatalf("pattern power %g, want closed form %g", b.Total(), want)
	}
}

// Decomposition yields valid Manhattan flows that sum to the field.
func TestDecomposeTheorem1(t *testing.T) {
	f, err := Theorem1Flow(3, 600)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := f.Decompose(7)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	loads := route.NewLoadTrackerTopo(f.Mesh)
	for _, fl := range flows {
		if fl.Comm.ID != 7 {
			t.Fatalf("fragment lost ID: %v", fl.Comm)
		}
		if err := fl.Path.Validate(f.Mesh, f.Src, f.Dst); err != nil {
			t.Fatalf("fragment path invalid: %v", err)
		}
		total += fl.Comm.Rate
		loads.AddPath(fl.Path, fl.Comm.Rate)
	}
	if math.Abs(total-600) > 1e-6 {
		t.Fatalf("fragments carry %g, want 600", total)
	}
	// Superposition reproduces the field exactly.
	want := f.links
	got := loads.LoadsView()
	for id := range want {
		if math.Abs(want[id]-got[id]) > 1e-6 {
			t.Fatalf("link %d: decomposed load %g, field %g", id, got[id], want[id])
		}
	}
}

func TestDecomposeRejectsBrokenFlow(t *testing.T) {
	m := mesh.MustNew(3, 3)
	f := NewFlowField(m, mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 3, V: 3}, 10)
	f.Add(mesh.Link{From: mesh.Coord{U: 1, V: 1}, To: mesh.Coord{U: 1, V: 2}}, 10)
	// Flow vanishes at (1,2): conservation violated.
	if _, err := f.Decompose(0); err == nil {
		t.Error("broken flow decomposed")
	}
}

// solveSplit routes set with the equal-split policy at the given split
// count and evaluates the routing.
func solveSplit(split int, m *mesh.Mesh, model power.Model, set comm.Set) (route.Result, error) {
	r, err := solve.Route("2MP", solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{MaxPaths: split})
	if err != nil {
		return route.Result{}, err
	}
	return route.Evaluate(r, model), nil
}

// Section 3.5's 2-MP example: splitting the rate-3 communication lets the
// routing reach power 32, below the best single-path 56.
func TestSplitBeatsSinglePathOnFigure2(t *testing.T) {
	m := mesh.MustNew(2, 2)
	model := power.Figure2()
	set := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1},
		{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 3},
	}
	res, err := solveSplit(2, m, model, set)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("2-MP infeasible: %v", res.Err)
	}
	if err := res.Routing.Validate(set, 2); err != nil {
		t.Fatal(err)
	}
	// Equal halves of γ2 (1.5+1.5) with γ1 on one side: loads 2.5/1.5,
	// power 2·(2.5³+1.5³) = 38. Better than 1-MP's 56, though the
	// paper's uneven 1+2 split reaches 32.
	if res.Power.Total() >= 56 {
		t.Errorf("2-MP power %g not better than single-path 56", res.Power.Total())
	}
}

// s-MP routings remain structurally valid on random instances and never
// exceed the per-communication path budget; a split count outside
// [1, MaxSplit] is an error.
func TestSplitValidOnRandom(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	for _, s := range []int{1, 2, 4, MaxSplit} {
		for seed := int64(0); seed < 4; seed++ {
			set := workload.New(m, seed).Uniform(20, 100, 2500)
			res, err := solveSplit(s, m, model, set)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Routing.Validate(set, s); err != nil {
				t.Fatalf("s=%d seed=%d: %v", s, seed, err)
			}
		}
	}
	set := workload.New(m, 1).Uniform(20, 100, 2500)
	for _, s := range []int{-1, MaxSplit + 1, 1 << 30} {
		if _, err := solveSplit(s, m, model, set); err == nil {
			t.Errorf("split count %d accepted", s)
		}
	}
}

// Splitting can only help on the heavy-twins instance: 4-MP succeeds where
// XY fails outright. (Two twins of 3400 exactly fill the two source
// gateway links at 3400 each when split evenly.)
func TestSplitRelievesOverload(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := comm.Set{
		{ID: 0, Src: mesh.Coord{U: 2, V: 2}, Dst: mesh.Coord{U: 6, V: 6}, Rate: 3400},
		{ID: 1, Src: mesh.Coord{U: 2, V: 2}, Dst: mesh.Coord{U: 6, V: 6}, Rate: 3400},
	}
	res, err := solveSplit(4, m, model, set)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("4-MP failed on triple twins: %v", res.Err)
	}
	r, err := heur.XY{}.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if route.Evaluate(r, model).Feasible {
		t.Fatal("XY unexpectedly feasible on triple twins")
	}
}
