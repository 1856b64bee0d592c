package mesh

import "fmt"

// Quadrant is the direction d ∈ {1,2,3,4} of a communication as defined in
// Section 3.3: it identifies which of the four diagonal families D^(d)_k a
// shortest path traverses monotonically.
type Quadrant int

// The four communication directions of Section 3.3.
//
//	DirSE (d=1): u and v both non-decreasing (moves South/East).
//	DirSW (d=2): u non-decreasing, v decreasing (moves South/West).
//	DirNW (d=3): u and v both decreasing (moves North/West).
//	DirNE (d=4): u decreasing, v non-decreasing (moves North/East).
const (
	DirSE Quadrant = 1 + iota
	DirSW
	DirNW
	DirNE
)

// String names the quadrant with the paper's index.
func (d Quadrant) String() string {
	switch d {
	case DirSE:
		return "d1(SE)"
	case DirSW:
		return "d2(SW)"
	case DirNW:
		return "d3(NW)"
	case DirNE:
		return "d4(NE)"
	}
	return fmt.Sprintf("Quadrant(%d)", int(d))
}

// Moves returns the two unit directions a shortest path may take in this
// quadrant. For degenerate (axis-aligned) communications only one of the
// two applies; callers filter with the bounding box.
func (d Quadrant) Moves() [2]Dir {
	switch d {
	case DirSE:
		return [2]Dir{South, East}
	case DirSW:
		return [2]Dir{South, West}
	case DirNW:
		return [2]Dir{North, West}
	case DirNE:
		return [2]Dir{North, East}
	}
	panic(fmt.Sprintf("mesh: invalid quadrant %d", int(d)))
}

// DirectionOf returns the direction d_i of a communication from src to dst,
// following the tie-breaking of Section 3.3 exactly:
//
//	u_src ≤ u_snk, v_src ≤ v_snk → d=1
//	u_src ≤ u_snk, v_src > v_snk → d=2
//	u_src > u_snk, v_src > v_snk → d=3
//	u_src > u_snk, v_src ≤ v_snk → d=4
func DirectionOf(src, dst Coord) Quadrant {
	switch {
	case src.U <= dst.U && src.V <= dst.V:
		return DirSE
	case src.U <= dst.U && src.V > dst.V:
		return DirSW
	case src.U > dst.U && src.V > dst.V:
		return DirNW
	default:
		return DirNE
	}
}

// DiagIndex returns the index k of the diagonal of family d that c belongs
// to (Section 3.3). Every core belongs to exactly one diagonal per family,
// with k ∈ {1, …, p+q−1}:
//
//	d=1: k = u + v − 1
//	d=2: k = u + q − v
//	d=3: k = p − u + q − v + 1
//	d=4: k = p − u + v
func (m *Mesh) DiagIndex(d Quadrant, c Coord) int {
	switch d {
	case DirSE:
		return c.U + c.V - 1
	case DirSW:
		return c.U + m.q - c.V
	case DirNW:
		return m.p - c.U + m.q - c.V + 1
	case DirNE:
		return m.p - c.U + c.V
	}
	panic(fmt.Sprintf("mesh: invalid quadrant %d", int(d)))
}

// MaxDiagIndex returns p+q−1, the largest diagonal index of any family.
func (m *Mesh) MaxDiagIndex() int { return m.p + m.q - 1 }

// DiagonalCores returns the cores of diagonal D^(d)_k in increasing row
// order. The result is empty when k is out of the family's range.
func (m *Mesh) DiagonalCores(d Quadrant, k int) []Coord {
	var out []Coord
	for u := 1; u <= m.p; u++ {
		for v := 1; v <= m.q; v++ {
			c := Coord{u, v}
			if m.DiagIndex(d, c) == k {
				out = append(out, c)
			}
		}
	}
	return out
}

// diagRowRange returns the row interval [uMin, uMax] of diagonal D^(d)_k
// (empty when uMin > uMax), together with the column of the diagonal's core
// on row u, v = vBase + vStep·u. The formulas invert DiagIndex per family.
func (m *Mesh) diagRowRange(d Quadrant, k int) (uMin, uMax, vBase, vStep int) {
	switch d {
	case DirSE: // v = k + 1 − u
		uMin, uMax, vBase, vStep = k+1-m.q, k, k+1, -1
	case DirSW: // v = u + q − k
		uMin, uMax, vBase, vStep = k-m.q+1, k, m.q-k, 1
	case DirNW: // v = p + q + 1 − k − u
		uMin, uMax, vBase, vStep = m.p+1-k, m.p+m.q-k, m.p+m.q+1-k, -1
	case DirNE: // v = k − p + u
		uMin, uMax, vBase, vStep = m.p+1-k, m.p+m.q-k, k-m.p, 1
	default:
		panic(fmt.Sprintf("mesh: invalid quadrant %d", int(d)))
	}
	if uMin < 1 {
		uMin = 1
	}
	if uMax > m.p {
		uMax = m.p
	}
	return uMin, uMax, vBase, vStep
}

// DiagonalLinkCount returns len(DiagonalLinks(d, k)) in O(1), without
// materializing the link set: the cores of D^(d)_k form a row interval of
// the closed form diagRowRange, and each of the family's two moves stays
// in-mesh on a sub-interval of it given by two linear inequalities in the
// row. The lower-bound sums of Theorems 1 and 2 only need the
// cardinality, so this replaces an O(p·q) scan plus an allocation per
// (d, k) pair.
func (m *Mesh) DiagonalLinkCount(d Quadrant, k int) int {
	uMin, uMax, vBase, vStep := m.diagRowRange(d, k)
	if uMin > uMax {
		return 0
	}
	count := 0
	for _, mv := range d.Moves() {
		du, dv := mv.Delta()
		lo, hi := uMin, uMax
		// 1 ≤ u+du ≤ p
		if l := 1 - du; l > lo {
			lo = l
		}
		if h := m.p - du; h < hi {
			hi = h
		}
		// 1 ≤ vBase + vStep·u + dv ≤ q
		if vStep == 1 {
			if l := 1 - dv - vBase; l > lo {
				lo = l
			}
			if h := m.q - dv - vBase; h < hi {
				hi = h
			}
		} else {
			if l := vBase + dv - m.q; l > lo {
				lo = l
			}
			if h := vBase + dv - 1; h < hi {
				hi = h
			}
		}
		if hi >= lo {
			count += hi - lo + 1
		}
	}
	return count
}

// Box is an axis-aligned rectangle of cores, used as the bounding box of a
// communication: every Manhattan path from src to dst stays inside
// Box of(src, dst).
type Box struct {
	UMin, UMax, VMin, VMax int
}

// BoxOf returns the bounding box spanned by two coordinates.
func BoxOf(a, b Coord) Box {
	bx := Box{UMin: a.U, UMax: b.U, VMin: a.V, VMax: b.V}
	if bx.UMin > bx.UMax {
		bx.UMin, bx.UMax = bx.UMax, bx.UMin
	}
	if bx.VMin > bx.VMax {
		bx.VMin, bx.VMax = bx.VMax, bx.VMin
	}
	return bx
}

// Contains reports whether c lies inside the box.
func (b Box) Contains(c Coord) bool {
	return c.U >= b.UMin && c.U <= b.UMax && c.V >= b.VMin && c.V <= b.VMax
}

// FrontierLinks returns the links a shortest path from src to dst may use
// at step t (0-based), i.e. the links going from diagonal D^(d)_{ksrc+t} to
// D^(d)_{ksrc+t+1} that stay inside the bounding box of the communication.
// This is the per-step frontier of Figure 3: the ideal sharing of the IG
// and PR heuristics spreads a rate over it (by id, AppendFrontierIDs).
// FrontierLinks panics if t is outside [0, Manhattan(src,dst)).
func (m *Mesh) FrontierLinks(src, dst Coord, t int) []Link {
	return m.AppendFrontierLinks(nil, src, dst, t)
}

// AppendFrontierLinks is FrontierLinks appending into out — allocation-free
// when out has capacity (pass out[:0] to reuse a scratch buffer). The
// diagonal is enumerated directly from the family's closed form instead of
// scanning every core, so a call is O(frontier) rather than O(p·q). Hot
// loops that index dense per-link state use AppendFrontierIDs, its
// link-id form.
func (m *Mesh) AppendFrontierLinks(out []Link, src, dst Coord, t int) []Link {
	ell := Manhattan(src, dst)
	if t < 0 || t >= ell {
		panic(fmt.Sprintf("mesh: frontier step %d out of range [0,%d)", t, ell))
	}
	d := DirectionOf(src, dst)
	box := BoxOf(src, dst)
	k := m.DiagIndex(d, src) + t
	moves := d.Moves()
	uMin, uMax, vBase, vStep := m.diagRowRange(d, k)
	for u := uMin; u <= uMax; u++ {
		c := Coord{U: u, V: vBase + vStep*u}
		if !box.Contains(c) {
			continue
		}
		for _, mv := range moves {
			n := c.Step(mv)
			if box.Contains(n) && m.Contains(n) {
				out = append(out, Link{From: c, To: n})
			}
		}
	}
	return out
}

// AppendFrontierIDs appends the dense LinkID of every link of
// FrontierLinks(src, dst, t), in exactly AppendFrontierLinks order — the
// form for loops that index flat per-link state (load accounting, the
// IG and PR heuristics, the optflow shortest-path DP), without building
// a Link per id or re-validating it. The order matters to callers whose
// float accumulations are order-dependent: AppendFrontierLinks lists the
// diagonal's cores by ascending row and, in every quadrant, the u-move
// first. It panics if src or dst lies off the mesh or t is outside
// [0, Manhattan(src,dst)).
func (m *Mesh) AppendFrontierIDs(out []int, src, dst Coord, t int) []int {
	f := m.BoxFrameOf(src, dst)
	if t < 0 || t >= f.DU+f.DV {
		panic(fmt.Sprintf("mesh: frontier step %d out of range [0,%d)", t, f.DU+f.DV))
	}
	lo, hi := max(0, t-f.DV), min(f.DU, t)
	a, da := lo, 1 // rows ascend with a when the box extends South
	if dst.U < src.U {
		a, da = hi, -1
	}
	for range hi - lo + 1 {
		if a < f.DU {
			out = append(out, f.UID(a, t-a))
		}
		if t-a < f.DV {
			out = append(out, f.VID(a, t-a))
		}
		a += da
	}
	return out
}

// BoxFrame addresses the cores of the bounding box of a communication
// src→dst by their offsets (a, b) from src: a hops along u (rows) and b
// along v (columns) toward dst, 0 ≤ a ≤ DU and 0 ≤ b ≤ DV. Core (a, b)
// lies on frontier step a+b, and its admissible links are the u-move
// when a < DU and the v-move when b < DV, whose dense LinkIDs are
// closed-form in (a, b). Cell numbers the cores for box-local arrays.
type BoxFrame struct {
	DU, DV int
	// uID0/vID0 are the ids of the u- and v-move out of src; offset
	// (a, b) adds a·aStep + b·bStep to both (LinkID is the move's
	// direction block plus the row-major index of the link's tail).
	uID0, vID0   int
	aStep, bStep int
}

// BoxFrameOf returns the box frame of src→dst. It panics if either
// endpoint lies off the mesh.
func (m *Mesh) BoxFrameOf(src, dst Coord) BoxFrame {
	if !m.Contains(src) || !m.Contains(dst) {
		panic(fmt.Sprintf("mesh: box %v->%v leaves %v", src, dst, m))
	}
	f := BoxFrame{DU: abs(dst.U - src.U), DV: abs(dst.V - src.V), aStep: m.q, bStep: 1}
	uDir, vDir := South, East
	if dst.U < src.U {
		uDir, f.aStep = North, -m.q
	}
	if dst.V < src.V {
		vDir, f.bStep = West, -1
	}
	from := (src.U-1)*m.q + src.V - 1
	f.uID0, f.vID0 = int(uDir)*m.p*m.q+from, int(vDir)*m.p*m.q+from
	return f
}

// Cells returns the number of cores in the box.
func (f *BoxFrame) Cells() int { return (f.DU + 1) * (f.DV + 1) }

// Cell returns the box-local index of core (a, b), row-major in a.
func (f *BoxFrame) Cell(a, b int) int { return a*(f.DV+1) + b }

// UID returns the LinkID of the u-move out of core (a, b); a < DU.
func (f *BoxFrame) UID(a, b int) int { return f.uID0 + a*f.aStep + b*f.bStep }

// VID returns the LinkID of the v-move out of core (a, b); b < DV.
func (f *BoxFrame) VID(a, b int) int { return f.vID0 + a*f.aStep + b*f.bStep }

// DiagonalLinks returns every link of the mesh going from diagonal
// D^(d)_k to D^(d)_{k+1} (no bounding box restriction). These are the link
// sets whose cardinalities appear in the lower-bound sums of Theorems 1
// and 2: 2k links for k < p, 2p−1 for p ≤ k < q, and 2(q+p−k−1) for k ≥ q
// on a p×q mesh with q ≥ p (family d=1).
func (m *Mesh) DiagonalLinks(d Quadrant, k int) []Link {
	moves := d.Moves()
	var out []Link
	for _, c := range m.DiagonalCores(d, k) {
		for _, mv := range moves {
			n := c.Step(mv)
			if m.Contains(n) {
				out = append(out, Link{From: c, To: n})
			}
		}
	}
	return out
}
