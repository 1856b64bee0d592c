package multipath

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// Theorem1Flow builds the Figure 4 max-MP routing pattern on a p×p mesh
// with p = 2·pPrime, carrying total rate K from C(1,1) to C(p,p). The
// expansion half uses the coefficients of the proof of Theorem 1:
//
//	h_k     = K/k                      (k = 1..p')
//	r_{k,j} = (k+1−j)/(k(k+1)) · K     (k = 1..p'−1, j = 1..k)
//	d_{k,j} = j/(k(k+1)) · K
//
// on odd diagonals the k cores C(j, 2k−j) each forward h_k east; on even
// diagonals the cores C(j, 2k+1−j) split their h_k into r (east) and d
// (south). The contraction half is the mirror image through the
// anti-diagonal. The resulting flow spreads the traffic over Θ(k) links at
// diagonal k, bringing the power to O(K^α) versus the XY routing's
// Θ(p·K^α) — the Theorem 1 separation.
func Theorem1Flow(pPrime int, k float64) (*FlowField, error) {
	if pPrime < 1 {
		return nil, fmt.Errorf("multipath: pPrime %d < 1", pPrime)
	}
	p := 2 * pPrime
	m := mesh.MustNew(p, p)
	src := mesh.Coord{U: 1, V: 1}
	dst := mesh.Coord{U: p, V: p}
	f := NewFlowField(m, src, dst, k)

	h := func(kk int) float64 { return k / float64(kk) }
	r := func(kk, j int) float64 { return float64(kk+1-j) / float64(kk*(kk+1)) * k }
	d := func(kk, j int) float64 { return float64(j) / float64(kk*(kk+1)) * k }

	// mirror reflects a coordinate through the anti-diagonal u+v = p+1.
	mirror := func(c mesh.Coord) mesh.Coord { return mesh.Coord{U: p + 1 - c.V, V: p + 1 - c.U} }
	// addBoth adds the expansion link and its contraction-half image
	// (endpoints mirrored and swapped so the image still flows to dst).
	addBoth := func(l mesh.Link, rate float64) {
		f.Add(l, rate)
		f.Add(mesh.Link{From: mirror(l.To), To: mirror(l.From)}, rate)
	}

	// Odd diagonals D_{2k−1}: cores C(j, 2k−j), j = 1..k, forward h_k east.
	for kk := 1; kk <= pPrime; kk++ {
		for j := 1; j <= kk; j++ {
			from := mesh.Coord{U: j, V: 2*kk - j}
			addBoth(mesh.Link{From: from, To: from.Step(mesh.East)}, h(kk))
		}
	}
	// Even diagonals D_{2k}: cores C(j, 2k+1−j), j = 1..k, split east/south.
	for kk := 1; kk <= pPrime-1; kk++ {
		for j := 1; j <= kk; j++ {
			from := mesh.Coord{U: j, V: 2*kk + 1 - j}
			addBoth(mesh.Link{From: from, To: from.Step(mesh.East)}, r(kk, j))
			addBoth(mesh.Link{From: from, To: from.Step(mesh.South)}, d(kk, j))
		}
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("multipath: Theorem 1 pattern invalid: %w", err)
	}
	return f, nil
}

// XYSingleRoute returns the evaluation of routing the whole rate K on the
// single XY path between the corners of a p×p mesh — the comparison
// baseline of Theorem 1 (PXY = 2(p−1)·K^α under the theory model).
func XYSingleRoute(p int, k float64, model power.Model) (power.Breakdown, error) {
	m := mesh.MustNew(p, p)
	loads := route.NewLoadTrackerTopo(m)
	loads.AddPath(route.XY(mesh.Coord{U: 1, V: 1}, mesh.Coord{U: p, V: p}), k)
	return loads.Power(model)
}

// Theorem1Ratio computes PXY/Pmax for the Figure 4 pattern at size
// p = 2·pPrime under the theory model with exponent alpha, the quantity
// Theorem 1 proves to grow as Θ(p).
func Theorem1Ratio(pPrime int, alpha float64) (float64, error) {
	model := power.Theory(alpha)
	k := 1.0
	xy, err := XYSingleRoute(2*pPrime, k, model)
	if err != nil {
		return 0, err
	}
	flow, err := Theorem1Flow(pPrime, k)
	if err != nil {
		return 0, err
	}
	mp, err := flow.Power(model)
	if err != nil {
		return 0, err
	}
	return xy.Total() / mp.Total(), nil
}
