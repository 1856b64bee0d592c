package theory

import (
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/heur"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

func TestLemma2PowersMatchClosedForms(t *testing.T) {
	for _, pp := range []int{1, 2, 3, 5, 8} {
		pxy, pyx, err := Lemma2Powers(pp, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantXY, wantYX := Lemma2ClosedForms(pp, 3)
		if math.Abs(pxy-wantXY) > 1e-9 {
			t.Errorf("p'=%d: PXY = %g, closed form %g", pp, pxy, wantXY)
		}
		if math.Abs(pyx-wantYX) > 1e-9 {
			t.Errorf("p'=%d: PYX = %g, closed form %g", pp, pyx, wantYX)
		}
	}
}

// The ratio PXY/PYX grows like p^{α−1}: doubling p' should multiply the
// ratio by roughly 2^{α−1}.
func TestLemma2RatioScaling(t *testing.T) {
	alpha := 3.0
	r8, err := ratio(8, alpha)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := ratio(16, alpha)
	if err != nil {
		t.Fatal(err)
	}
	growth := r16 / r8
	want := math.Pow(2, alpha-1)
	if growth < want*0.7 || growth > want*1.3 {
		t.Errorf("ratio growth %g, want ≈ %g (2^{α−1})", growth, want)
	}
}

func ratio(pp int, alpha float64) (float64, error) {
	pxy, pyx, err := Lemma2Powers(pp, alpha)
	if err != nil {
		return 0, err
	}
	return pxy / pyx, nil
}

// The YX routing of the staircase is in fact optimal: the ideal-share
// lower bound matches it (unit loads cannot be reduced), so heuristics
// that find it are provably optimal on this family.
func TestLemma2YXIsOptimal(t *testing.T) {
	m, set, err := Lemma2Instance(4)
	if err != nil {
		t.Fatal(err)
	}
	model := power.Theory(3)
	_, pyx, err := Lemma2Powers(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	lb := exact.IdealShareLowerBound(m, model, set)
	if pyx < lb-1e-9 {
		t.Fatalf("YX power %g below lower bound %g", pyx, lb)
	}
	// The heuristics should match or at least approach YX on this
	// instance; BEST must be no worse than 2× YX here.
	bw := modelWithBW(model, set)
	r, err := heur.Best{}.Route(solve.Instance{Mesh: m, Model: bw, Comms: set}, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := route.Evaluate(r, bw)
	if !res.Feasible {
		t.Fatal("BEST infeasible on staircase")
	}
	if res.Power.Total() > 2*pyx+1e-9 {
		t.Errorf("BEST power %g far above YX %g", res.Power.Total(), pyx)
	}
}

// modelWithBW bounds the theory model so feasibility checking is
// meaningful (any load up to the full staircase is allowed).
func modelWithBW(m power.Model, set interface{ TotalRate() float64 }) power.Model {
	m.MaxBW = set.TotalRate() + 1
	return m
}

func TestLemma2InstanceRejectsBadSize(t *testing.T) {
	if _, _, err := Lemma2Instance(0); err == nil {
		t.Error("pPrime=0 accepted")
	}
}
