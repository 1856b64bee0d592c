package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Every core belongs to exactly four diagonals, one per family, with index
// in {1, …, p+q−1} (Section 3.3).
func TestEveryCoreInExactlyFourDiagonals(t *testing.T) {
	m := MustNew(5, 8)
	for _, c := range m.Cores() {
		for _, d := range []Quadrant{DirSE, DirSW, DirNW, DirNE} {
			k := m.DiagIndex(d, c)
			if k < 1 || k > m.MaxDiagIndex() {
				t.Errorf("%v family %v: index %d out of [1,%d]", c, d, k, m.MaxDiagIndex())
			}
			found := false
			for _, cc := range m.DiagonalCores(d, k) {
				if cc == c {
					found = true
				}
			}
			if !found {
				t.Errorf("%v not listed in its own diagonal D^%v_%d", c, d, k)
			}
		}
	}
}

// Moving along either unit move of a quadrant increases the diagonal index
// by exactly one — the monotonicity that makes shortest paths diagonal-
// ordered (Section 3.3).
func TestDiagIndexMonotoneAlongMoves(t *testing.T) {
	m := MustNew(6, 6)
	for _, d := range []Quadrant{DirSE, DirSW, DirNW, DirNE} {
		for _, c := range m.Cores() {
			for _, mv := range d.Moves() {
				n := c.Step(mv)
				if !m.Contains(n) {
					continue
				}
				if m.DiagIndex(d, n) != m.DiagIndex(d, c)+1 {
					t.Fatalf("family %v: step %v from %v: diag %d -> %d, want +1",
						d, mv, c, m.DiagIndex(d, c), m.DiagIndex(d, n))
				}
			}
		}
	}
}

func TestDirectionOfPaperCases(t *testing.T) {
	cases := []struct {
		src, dst Coord
		want     Quadrant
	}{
		{Coord{1, 1}, Coord{3, 3}, DirSE},
		{Coord{1, 3}, Coord{3, 1}, DirSW},
		{Coord{3, 3}, Coord{1, 1}, DirNW},
		{Coord{3, 1}, Coord{1, 3}, DirNE},
		// Tie-breaking: equality counts as ≤ (paper's definitions).
		{Coord{2, 2}, Coord{2, 4}, DirSE}, // same row, v increasing
		{Coord{2, 2}, Coord{4, 2}, DirSE}, // same column, u increasing
		{Coord{2, 4}, Coord{2, 2}, DirSW}, // same row, v decreasing
		{Coord{4, 2}, Coord{2, 2}, DirNE}, // same column, u decreasing
		{Coord{2, 2}, Coord{2, 2}, DirSE}, // degenerate
	}
	for _, tc := range cases {
		if got := DirectionOf(tc.src, tc.dst); got != tc.want {
			t.Errorf("DirectionOf(%v,%v) = %v, want %v", tc.src, tc.dst, got, tc.want)
		}
	}
}

// ksnk = ksrc + ℓ for every communication (Section 3.3).
func TestSinkDiagonalIndex(t *testing.T) {
	m := MustNew(7, 9)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		src := Coord{rng.Intn(7) + 1, rng.Intn(9) + 1}
		dst := Coord{rng.Intn(7) + 1, rng.Intn(9) + 1}
		d := DirectionOf(src, dst)
		if m.DiagIndex(d, dst) != m.DiagIndex(d, src)+Manhattan(src, dst) {
			t.Fatalf("src %v dst %v family %v: ksnk %d != ksrc %d + ell %d",
				src, dst, d, m.DiagIndex(d, dst), m.DiagIndex(d, src), Manhattan(src, dst))
		}
	}
}

func TestFrontierLinksStructure(t *testing.T) {
	m := MustNew(8, 8)
	src, dst := Coord{2, 2}, Coord{5, 6}
	ell := Manhattan(src, dst)
	d := DirectionOf(src, dst)
	for step := 0; step < ell; step++ {
		links := m.FrontierLinks(src, dst, step)
		if len(links) == 0 {
			t.Fatalf("step %d: empty frontier", step)
		}
		box := BoxOf(src, dst)
		for _, l := range links {
			if !m.ValidLink(l) {
				t.Fatalf("step %d: invalid link %v", step, l)
			}
			if !box.Contains(l.From) || !box.Contains(l.To) {
				t.Fatalf("step %d: link %v leaves bounding box", step, l)
			}
			if m.DiagIndex(d, l.From) != m.DiagIndex(d, src)+step {
				t.Fatalf("step %d: link %v starts on wrong diagonal", step, l)
			}
		}
	}
}

// A straight-line communication has a frontier of exactly one link per
// step; the ideal share then degenerates to the XY routing.
func TestFrontierLinksStraightLine(t *testing.T) {
	m := MustNew(8, 8)
	src, dst := Coord{3, 2}, Coord{3, 7}
	for step := 0; step < Manhattan(src, dst); step++ {
		links := m.FrontierLinks(src, dst, step)
		if len(links) != 1 {
			t.Fatalf("step %d: %d frontier links, want 1", step, len(links))
		}
		want := Link{Coord{3, 2 + step}, Coord{3, 3 + step}}
		if links[0] != want {
			t.Fatalf("step %d: frontier %v, want %v", step, links[0], want)
		}
	}
}

func TestFrontierLinksPanicsOutOfRange(t *testing.T) {
	m := MustNew(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("FrontierLinks out-of-range step did not panic")
		}
	}()
	m.FrontierLinks(Coord{1, 1}, Coord{2, 2}, 2)
}

// The per-diagonal whole-mesh link counts match the closed forms used in
// the proofs of Theorems 1 and 2: for family d=1 on a p×q mesh with q ≥ p,
// |links D_k→D_{k+1}| = 2k for k<p, 2p−1 for p ≤ k < q, 2(q+p−k−1) for k ≥ q.
func TestDiagonalLinkCountsMatchTheorem(t *testing.T) {
	p, q := 4, 7
	m := MustNew(p, q)
	for k := 1; k <= p+q-2; k++ {
		var want int
		switch {
		case k < p:
			want = 2 * k
		case k < q:
			want = 2*p - 1
		default:
			want = 2 * (q + p - k - 1)
		}
		if got := len(m.DiagonalLinks(DirSE, k)); got != want {
			t.Errorf("k=%d: %d diagonal links, want %d", k, got, want)
		}
	}
}

// The closed-form DiagonalLinkCount agrees with the materialized link set
// for every family and every index, including out-of-range ones, across
// square, flat, and tall meshes.
func TestDiagonalLinkCountMatchesDiagonalLinks(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 6}, {2, 2}, {3, 5}, {4, 7}, {7, 4}, {8, 8}} {
		m := MustNew(dims[0], dims[1])
		for _, d := range []Quadrant{DirSE, DirSW, DirNW, DirNE} {
			for k := -1; k <= m.MaxDiagIndex()+2; k++ {
				want := len(m.DiagonalLinks(d, k))
				if got := m.DiagonalLinkCount(d, k); got != want {
					t.Errorf("%dx%d %v k=%d: DiagonalLinkCount=%d, len(DiagonalLinks)=%d",
						dims[0], dims[1], d, k, got, want)
				}
			}
		}
	}
}

// Each link lies between successive diagonals in exactly two of the four
// families (remark in the proof of Theorem 2).
func TestLinkBelongsToTwoFamilies(t *testing.T) {
	m := MustNew(5, 5)
	for _, l := range m.Links() {
		n := 0
		for _, d := range []Quadrant{DirSE, DirSW, DirNW, DirNE} {
			if m.DiagIndex(d, l.To) == m.DiagIndex(d, l.From)+1 {
				n++
			}
		}
		if n != 2 {
			t.Errorf("link %v: advances %d families, want 2", l, n)
		}
	}
}

// boxCores is the number of cores inside a box.
func boxCores(b Box) int { return (b.UMax - b.UMin + 1) * (b.VMax - b.VMin + 1) }

func TestBoxOf(t *testing.T) {
	f := func(au, av, bu, bv uint8) bool {
		a := Coord{int(au%10) + 1, int(av%10) + 1}
		b := Coord{int(bu%10) + 1, int(bv%10) + 1}
		box := BoxOf(a, b)
		if !box.Contains(a) || !box.Contains(b) {
			return false
		}
		return boxCores(box) == (abs(a.U-b.U)+1)*(abs(a.V-b.V)+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// AppendFrontierLinks' closed-form diagonal enumeration must reproduce the
// reference DiagonalCores scan exactly — same links, same order — for
// every geometry on square and skewed meshes.
func TestAppendFrontierLinksMatchesReferenceScan(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {3, 9}, {9, 3}, {1, 7}, {7, 1}} {
		m := MustNew(dims[0], dims[1])
		reference := func(src, dst Coord, step int) []Link {
			d := DirectionOf(src, dst)
			box := BoxOf(src, dst)
			k := m.DiagIndex(d, src) + step
			var out []Link
			for _, c := range m.DiagonalCores(d, k) {
				if !box.Contains(c) {
					continue
				}
				for _, mv := range d.Moves() {
					n := c.Step(mv)
					if box.Contains(n) && m.Contains(n) {
						out = append(out, Link{From: c, To: n})
					}
				}
			}
			return out
		}
		var buf []Link
		for _, src := range m.Cores() {
			for _, dst := range m.Cores() {
				if src == dst {
					continue
				}
				for step := 0; step < Manhattan(src, dst); step++ {
					want := reference(src, dst, step)
					buf = m.AppendFrontierLinks(buf[:0], src, dst, step)
					if len(buf) != len(want) {
						t.Fatalf("%v: %v->%v step %d: %d links, want %d", m, src, dst, step, len(buf), len(want))
					}
					for i := range want {
						if buf[i] != want[i] {
							t.Fatalf("%v: %v->%v step %d: link %d = %v, want %v", m, src, dst, step, i, buf[i], want[i])
						}
					}
				}
			}
		}
	}
}

// AppendFrontierIDs lists exactly the LinkID of each AppendFrontierLinks
// link, element by element, for every ordered pair of cores and every
// step on square, skewed, single-row, single-column and single-core
// meshes — all four quadrants and every degenerate row and column. The
// ids come from BoxFrame.UID/VID, so this pins the frame's id formula on
// every admissible link of every box.
func TestAppendFrontierIDsMatchesLinks(t *testing.T) {
	quadrants := map[Quadrant]int{}
	degenerate := 0
	for _, dims := range [][2]int{{1, 1}, {1, 8}, {8, 1}, {3, 11}, {8, 8}} {
		m := MustNew(dims[0], dims[1])
		var links []Link
		var ids []int
		for _, src := range m.Cores() {
			for _, dst := range m.Cores() {
				if src == dst {
					continue
				}
				quadrants[DirectionOf(src, dst)]++
				if src.U == dst.U || src.V == dst.V {
					degenerate++
				}
				if f := m.BoxFrameOf(src, dst); f.Cells() != boxCores(BoxOf(src, dst)) {
					t.Fatalf("%v: %v->%v: frame has %d cells, box %d cores", m, src, dst, f.Cells(), boxCores(BoxOf(src, dst)))
				}
				for step := 0; step < Manhattan(src, dst); step++ {
					links = m.AppendFrontierLinks(links[:0], src, dst, step)
					ids = m.AppendFrontierIDs(ids[:0], src, dst, step)
					if len(ids) != len(links) {
						t.Fatalf("%v: %v->%v step %d: %d ids, want %d", m, src, dst, step, len(ids), len(links))
					}
					for i, l := range links {
						if ids[i] != m.LinkID(l) {
							t.Fatalf("%v: %v->%v step %d: id %d = %d, want LinkID(%v) = %d",
								m, src, dst, step, i, ids[i], l, m.LinkID(l))
						}
					}
				}
			}
		}
	}
	if len(quadrants) != 4 || degenerate == 0 {
		t.Fatalf("coverage: quadrants %v, %d degenerate pairs", quadrants, degenerate)
	}
}

// AppendFrontierIDs rejects steps outside the path and endpoints off the
// mesh.
func TestAppendFrontierIDsPanicsOutOfRange(t *testing.T) {
	m := MustNew(4, 4)
	for _, tc := range []struct {
		src, dst Coord
		step     int
	}{
		{Coord{1, 1}, Coord{2, 2}, 2},
		{Coord{1, 1}, Coord{2, 2}, -1},
		{Coord{0, 1}, Coord{2, 2}, 0},
		{Coord{1, 1}, Coord{2, 5}, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v->%v step %d: no panic", tc.src, tc.dst, tc.step)
				}
			}()
			m.AppendFrontierIDs(nil, tc.src, tc.dst, tc.step)
		}()
	}
}
