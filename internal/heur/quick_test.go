package heur

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/solve"
)

// quickInstance derives a small random instance from fuzz bytes: mesh
// dimensions 2..6, 1..12 communications with rates 1..3500.
func quickInstance(dims [2]uint8, raw []uint32) solve.Instance {
	p := int(dims[0]%5) + 2
	q := int(dims[1]%5) + 2
	m := mesh.MustNew(p, q)
	n := len(raw)/5 + 1
	set := make(comm.Set, 0, n)
	for i := 0; i < n && (i+1)*5 <= len(raw); i++ {
		w := raw[i*5:]
		src := mesh.Coord{U: int(w[0])%p + 1, V: int(w[1])%q + 1}
		dst := mesh.Coord{U: int(w[2])%p + 1, V: int(w[3])%q + 1}
		if src == dst {
			continue
		}
		set = append(set, comm.Comm{ID: i, Src: src, Dst: dst, Rate: float64(w[4]%3500) + 1})
	}
	return solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set}
}

// Property: every heuristic produces a structurally valid 1-MP routing on
// arbitrary instances, and its evaluated loads conserve total volume.
func TestQuickAllHeuristicsStructure(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	for _, h := range paperHeuristics {
		h := h
		f := func(dims [2]uint8, raw []uint32) bool {
			in := quickInstance(dims, raw)
			if len(in.Comms) == 0 {
				return true
			}
			r, err := h.Route(in, solve.Options{})
			if err != nil {
				return false
			}
			if err := r.Validate(in.Comms, 1); err != nil {
				t.Logf("%s: %v", h.Name(), err)
				return false
			}
			sum := 0.0
			for _, load := range r.Loads() {
				sum += load
			}
			return math.Abs(sum-in.Comms.TotalVolume()) < 1e-6*(1+in.Comms.TotalVolume())
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", h.Name(), err)
		}
	}
}

// Property: BEST's power never exceeds XY's when both are feasible.
func TestQuickBestLEQXY(t *testing.T) {
	f := func(dims [2]uint8, raw []uint32) bool {
		in := quickInstance(dims, raw)
		if len(in.Comms) == 0 {
			return true
		}
		xy, err1 := solveWith(XY{}, in, solve.Options{})
		best, err2 := solveWith(Best{}, in, solve.Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if !xy.Feasible {
			return true
		}
		return best.Feasible && best.Power.Total() <= xy.Power.Total()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: scaling every rate by a constant 0 < k ≤ 1 never turns a
// feasible XY instance infeasible (monotone feasibility).
func TestQuickFeasibilityMonotoneInRates(t *testing.T) {
	f := func(dims [2]uint8, raw []uint32, scale uint8) bool {
		in := quickInstance(dims, raw)
		if len(in.Comms) == 0 {
			return true
		}
		res, err := solveWith(XY{}, in, solve.Options{})
		if err != nil {
			return false
		}
		if !res.Feasible {
			return true
		}
		k := (float64(scale%100) + 1) / 101.0 // in (0, 1]
		scaled := slices.Clone(in.Comms)
		for i := range scaled {
			scaled[i].Rate *= k
		}
		res2, err := solveWith(XY{}, solve.Instance{Mesh: in.Mesh, Model: in.Model, Comms: scaled}, solve.Options{})
		if err != nil {
			return false
		}
		return res2.Feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
