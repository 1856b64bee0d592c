package theory

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/exact"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// The proof of Theorem 2 sandwiches any instance between two quantities
// built from the per-diagonal traffic sums K^(d)_k:
//
//	PXY   ≤ 2·2^α · Σ_k Σ_d (K^(d)_k)^α               (upper bound)
//	Pmax  ≥ (2p)^{1−α} · Σ_d Σ_k (K^(d)_k)^α          (lower bound)
//
// This test checks both inequalities numerically on random instances with
// the theory model (Pleak = 0, P0 = 1): the measured XY power must respect
// the upper bound, and the ideal-share lower bound implementation must
// respect the (weaker) closed form.
func TestTheorem2Inequalities(t *testing.T) {
	p, q := 6, 6
	m := mesh.MustNew(p, q)
	alpha := 2.5
	model := power.Theory(alpha)
	rng := rand.New(rand.NewSource(99))

	for trial := 0; trial < 30; trial++ {
		var set comm.Set
		n := rng.Intn(20) + 1
		for i := 0; i < n; i++ {
			var src, dst mesh.Coord
			for {
				src = mesh.Coord{U: rng.Intn(p) + 1, V: rng.Intn(q) + 1}
				dst = mesh.Coord{U: rng.Intn(p) + 1, V: rng.Intn(q) + 1}
				if src != dst {
					break
				}
			}
			set = append(set, comm.Comm{ID: i, Src: src, Dst: dst, Rate: rng.Float64()*100 + 1})
		}

		// Σ_d Σ_k (K^(d)_k)^α from the proof.
		sum := 0.0
		for _, d := range []mesh.Quadrant{mesh.DirSE, mesh.DirSW, mesh.DirNW, mesh.DirNE} {
			for k := 1; k <= m.MaxDiagIndex()-1; k++ {
				traffic := 0.0
				for _, c := range set {
					if c.Direction() != d {
						continue
					}
					if m.DiagIndex(d, c.Src) <= k && k < m.DiagIndex(d, c.Dst) {
						traffic += c.Rate
					}
				}
				sum += math.Pow(traffic, alpha)
			}
		}

		// Measured XY power.
		loads := route.NewLoadTrackerTopo(m)
		for _, c := range set {
			loads.AddPath(route.XY(c.Src, c.Dst), c.Rate)
		}
		b, err := loads.Power(model)
		if err != nil {
			t.Fatal(err)
		}
		upper := 2 * math.Pow(2, alpha) * sum
		if b.Total() > upper+1e-6 {
			t.Fatalf("trial %d: PXY %g exceeds the Theorem 2 upper bound %g", trial, b.Total(), upper)
		}

		// The implemented ideal-share bound must dominate the proof's
		// coarser closed form (which spreads over 2p links everywhere).
		closedForm := math.Pow(2*float64(p), 1-alpha) * sum
		lb := exact.IdealShareLowerBound(m, model, set)
		if lb < closedForm-1e-9 {
			t.Fatalf("trial %d: ideal-share bound %g below the closed form %g", trial, lb, closedForm)
		}
	}
}
