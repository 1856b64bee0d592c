// Package theory builds the worst-case instances of Section 4: the
// Lemma 2 staircase separating XY from single-path Manhattan routing by a
// factor Θ(p^{α−1}), and helpers for checking the Theorem 1 and Theorem 2
// bounds numerically.
package theory

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// Lemma2Instance returns the staircase of the proof of Lemma 2 on a
// (p'+1)×(p'+1) mesh: p' unit-rate communications γi = (C(1,i), C(i,p'+1), 1).
// Under XY routing all of them pile up on the last column; under YX
// routing they are pairwise disjoint.
func Lemma2Instance(pPrime int) (*mesh.Mesh, comm.Set, error) {
	if pPrime < 1 {
		return nil, nil, fmt.Errorf("theory: pPrime %d < 1", pPrime)
	}
	p := pPrime + 1
	m := mesh.MustNew(p, p)
	set := make(comm.Set, 0, pPrime)
	for i := 1; i <= pPrime; i++ {
		set = append(set, comm.Comm{
			ID:  i,
			Src: mesh.Coord{U: 1, V: i},
			Dst: mesh.Coord{U: i, V: pPrime + 1},
			// Rate 1 as in the proof; the ratio is rate-independent
			// because both routings scale with K^α.
			Rate: 1,
		})
	}
	return m, set, nil
}

// Lemma2Powers routes the staircase with XY and with YX under the theory
// model and returns both powers. The proof's closed forms are
// PXY = 2·Σ_{i=1..p'} i^α and PYX = p'(p'+1).
func Lemma2Powers(pPrime int, alpha float64) (pxy, pyx float64, err error) {
	m, set, err := Lemma2Instance(pPrime)
	if err != nil {
		return 0, 0, err
	}
	model := power.Theory(alpha)
	xyLoads := route.NewLoadTrackerTopo(m)
	yxLoads := route.NewLoadTrackerTopo(m)
	for _, c := range set {
		xyLoads.AddPath(route.XY(c.Src, c.Dst), c.Rate)
		yxLoads.AddPath(route.YX(c.Src, c.Dst), c.Rate)
	}
	bx, err := xyLoads.Power(model)
	if err != nil {
		return 0, 0, err
	}
	by, err := yxLoads.Power(model)
	if err != nil {
		return 0, 0, err
	}
	return bx.Total(), by.Total(), nil
}

// Lemma2ClosedForms returns the exact closed-form powers for the
// staircase. Under XY, the j-th row-1 link carries the j communications
// with i ≤ j and the j-th column-(p'+1) link carries p'−j of them, so
// PXY = Σ_{j=1..p'} j^α + Σ_{j=1..p'−1} j^α ≈ 2Σ i^α (the paper's rounded
// form). Under YX the communications are link-disjoint, p' unit-loaded
// links each: PYX = p'². Both agree with the proof's orders
// Θ(p'^{α+1}) and Θ(p'²), giving the Θ(p^{α−1}) ratio.
func Lemma2ClosedForms(pPrime int, alpha float64) (pxy, pyx float64) {
	for j := 1; j <= pPrime; j++ {
		pxy += math.Pow(float64(j), alpha)
	}
	for j := 1; j <= pPrime-1; j++ {
		pxy += math.Pow(float64(j), alpha)
	}
	return pxy, float64(pPrime * pPrime)
}
