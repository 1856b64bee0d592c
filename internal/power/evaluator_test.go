package power

import (
	"math"
	"testing"
)

// referencePseudo is the uncompiled pseudo-power extension the refinement
// heuristics historically computed per probe: quantize, fall back to the
// load itself when overloaded, charge Pleak + Dynamic. The Evaluator must
// reproduce it bit-for-bit.
func referencePseudo(m Model, load float64) float64 {
	if load <= 0 {
		return 0
	}
	f, ok := m.QuantizeOK(load)
	if !ok {
		f = load
	}
	return m.Pleak + m.Dynamic(f)
}

// evaluatorModels is the model line-up of the agreement tests: both
// Kim-Horowitz variants and the Theory regime of the Section 4 analyses.
func evaluatorModels() map[string]Model {
	return map[string]Model{
		"KimHorowitz":           KimHorowitz(),
		"KimHorowitzContinuous": KimHorowitzContinuous(),
		"Theory2.5":             Theory(2.5),
		"Theory3":               Theory(3),
		"Figure2":               Figure2(),
	}
}

// probeLoads builds the probe set for a model: zero, negative, interior
// points, every frequency boundary at ±loadEps and ±2·loadEps, and the
// MaxBW feasibility edge.
func probeLoads(m Model) []float64 {
	loads := []float64{-1, -loadEps, 0, loadEps, 1, 17.5, 99.999}
	edges := append([]float64{}, m.Freqs...)
	if m.MaxBW < math.MaxFloat64 {
		edges = append(edges, m.MaxBW)
	} else {
		edges = append(edges, 1e12)
	}
	for _, f := range edges {
		loads = append(loads,
			f-2*loadEps, f-loadEps, f, f+loadEps, f+2*loadEps,
			f/2, f*1.5)
	}
	return loads
}

// The compiled evaluator agrees bit-for-bit with the model it was built
// from on every query, across discrete, continuous and theory models and
// in particular at the frequency and bandwidth boundaries.
func TestEvaluatorMatchesModel(t *testing.T) {
	for name, m := range evaluatorModels() {
		e := Compile(m)
		for _, load := range probeLoads(m) {
			pM, okM := m.LinkPowerOK(load)
			pE, okE := e.LinkPowerOK(load)
			if pM != pE || okM != okE {
				t.Errorf("%s: LinkPowerOK(%g): model (%g,%v) vs evaluator (%g,%v)",
					name, load, pM, okM, pE, okE)
			}
			if want, got := referencePseudo(m, load), e.Pseudo(load); want != got {
				t.Errorf("%s: Pseudo(%g): reference %g vs evaluator %g",
					name, load, want, got)
			}
			wantX := 0.0
			if load > m.MaxBW {
				wantX = load - m.MaxBW
			}
			if got := e.Excess(load); got != wantX {
				t.Errorf("%s: Excess(%g): want %g got %g", name, load, wantX, got)
			}
		}
	}
}

// QuantizeOK at the frequency boundaries: loads within loadEps of a
// discrete frequency snap onto it, loads just past it select the next
// rung, and loads just past MaxBW+loadEps are infeasible; the compiled
// evaluator's link power agrees with the model's at every one of them.
func TestQuantizeOKBoundaries(t *testing.T) {
	m := KimHorowitz() // ladder {1000, 2500, 3500}
	cases := []struct {
		load   float64
		wantF  float64
		wantOK bool
	}{
		{1000 - loadEps, 1000, true},
		{1000, 1000, true},
		{1000 + loadEps, 1000, true}, // snaps back onto the rung
		{1000 + 3*loadEps, 2500, true},
		{2500 - loadEps, 2500, true},
		{2500 + loadEps, 2500, true},
		{2500 + 3*loadEps, 3500, true},
		{3500 - loadEps, 3500, true},
		{3500, 3500, true},
		{3500 + loadEps, 3500, true}, // exactly the feasibility edge
		{3500 + 3*loadEps, 0, false}, // past it
		{4000, 0, false},
	}
	e := Compile(m)
	for _, c := range cases {
		f, ok := m.QuantizeOK(c.load)
		if f != c.wantF || ok != c.wantOK {
			t.Errorf("Model.QuantizeOK(%v): got (%g,%v), want (%g,%v)",
				c.load, f, ok, c.wantF, c.wantOK)
		}
		pM, okM := m.LinkPowerOK(c.load)
		if pE, okE := e.LinkPowerOK(c.load); pE != pM || okE != okM {
			t.Errorf("Evaluator.LinkPowerOK(%v): got (%g,%v), model (%g,%v)",
				c.load, pE, okE, pM, okM)
		}
		// Quantize (the error-returning form) must agree with QuantizeOK.
		fq, err := m.Quantize(c.load)
		if (err == nil) != c.wantOK || fq != c.wantF {
			t.Errorf("Model.Quantize(%v): got (%g,%v), want (%g, ok=%v)",
				c.load, fq, err, c.wantF, c.wantOK)
		}
	}
}

// The continuous boundary: at MaxBW+loadEps the load is still feasible and
// clamps onto MaxBW; past it the link is overloaded but the pseudo power
// keeps growing continuously.
func TestContinuousBoundaries(t *testing.T) {
	m := KimHorowitzContinuous()
	e := Compile(m)
	pCap, _ := e.LinkPowerOK(m.MaxBW)
	if p, ok := e.LinkPowerOK(m.MaxBW + loadEps); !ok || p != pCap {
		t.Errorf("LinkPowerOK(MaxBW+eps): got (%g,%v), want the power at MaxBW (%g,true)", p, ok, pCap)
	}
	if _, ok := e.LinkPowerOK(m.MaxBW + 3*loadEps); ok {
		t.Error("LinkPowerOK(MaxBW+3eps): want infeasible")
	}
	atCap := e.Pseudo(m.MaxBW)
	beyond := e.Pseudo(m.MaxBW * 1.25)
	if !(beyond > atCap) {
		t.Errorf("pseudo power must keep growing past MaxBW: %g vs %g", beyond, atCap)
	}
	if want := m.Pleak + m.Dynamic(m.MaxBW*1.25); beyond != want {
		t.Errorf("overloaded pseudo power: got %g, want continuation %g", beyond, want)
	}
}

// CompiledFrom validates the workspace cache key: equal models match,
// any field difference (including the frequency ladder) invalidates.
func TestEvaluatorCompiledFrom(t *testing.T) {
	m := KimHorowitz()
	e := Compile(m)
	if !e.CompiledFrom(KimHorowitz()) {
		t.Error("evaluator does not recognize the model it was compiled from")
	}
	variants := []Model{KimHorowitzContinuous(), Figure2(), Theory(2.95)}
	alt := KimHorowitz()
	alt.Pleak++
	variants = append(variants, alt)
	alt = KimHorowitz()
	alt.Freqs = []float64{1000, 2000, 3500}
	variants = append(variants, alt)
	for i, v := range variants {
		if e.CompiledFrom(v) {
			t.Errorf("variant %d falsely matches the compiled model", i)
		}
	}
	// The compile captures Freqs by copy: mutating the source ladder must
	// not desync the evaluator.
	src := KimHorowitz()
	e = Compile(src)
	src.Freqs[0] = 999
	want, _ := KimHorowitz().LinkPowerOK(500)
	if p, ok := e.LinkPowerOK(500); !ok || p != want {
		t.Errorf("evaluator aliased the caller's Freqs: LinkPowerOK(500) = (%g,%v), want %g", p, ok, want)
	}
}
