package exact

import (
	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
)

// IdealShareLowerBound computes the routing-independent lower bound used
// in the proofs of Theorems 1 and 2: for every diagonal family d and index
// k, the traffic K^(d)_k of all communications of direction d crossing
// from D^(d)_k to D^(d)_{k+1} is spread ideally (equally) over every link
// of the whole mesh between those diagonals, and only the convex
// continuous dynamic power is charged. Every routing — single- or
// multi-path, even the unrestricted max-MP rule — consumes at least this
// much dynamic power.
// The implementation is O(C + D·K): each communication of direction d
// crosses every boundary k ∈ [ksrc, ksnk), so one pass over the set fills
// a per-direction difference array whose prefix sums are the crossing
// traffics K^(d)_k, and the link cardinalities come from the closed-form
// mesh.DiagonalLinkCount instead of materializing DiagonalLinks per pair.
// Prefix-sum cancellation can leave float dust where the true traffic is
// zero; boundaries with traffic ≤ 1e-9 are skipped, which can only lower
// the bound and so keeps it admissible.
func IdealShareLowerBound(m *mesh.Mesh, model power.Model, set comm.Set) float64 {
	cont := model
	cont.Freqs = nil
	k1 := m.MaxDiagIndex() + 1 // diff row stride: indices 0..MaxDiagIndex per direction
	diff := make([]float64, 4*k1)
	for _, c := range set {
		d := c.Direction()
		base := (int(d) - 1) * k1
		diff[base+m.DiagIndex(d, c.Src)] += c.Rate
		diff[base+m.DiagIndex(d, c.Dst)] -= c.Rate
	}
	total := 0.0
	for di, d := range []mesh.Quadrant{mesh.DirSE, mesh.DirSW, mesh.DirNW, mesh.DirNE} {
		base := di * k1
		traffic := 0.0
		for k := 1; k <= m.MaxDiagIndex()-1; k++ {
			traffic += diff[base+k]
			if traffic <= 1e-9 {
				continue
			}
			n := m.DiagonalLinkCount(d, k)
			if n == 0 {
				continue
			}
			total += float64(n) * cont.Dynamic(traffic/float64(n))
		}
	}
	return total
}
