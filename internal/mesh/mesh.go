// Package mesh models the 2-D mesh interconnect of a chip multiprocessor
// (CMP) as described in Section 3.1 of Benoit, Melhem, Renaud-Goud and
// Robert, "Power-aware Manhattan routing on chip multiprocessors"
// (INRIA RR-7752 / IPDPS 2012).
//
// The platform is a p×q grid of homogeneous cores C(u,v), 1 ≤ u ≤ p,
// 1 ≤ v ≤ q, with two unidirectional links between every pair of
// neighboring cores. The package provides coordinates, directed links with
// dense integer identifiers (for O(1) load accounting), the four diagonal
// families D^(d)_k of Section 3.3, and Manhattan-path frontier enumeration
// used by the routing heuristics and lower bounds.
package mesh

import (
	"fmt"
)

// Coord identifies a core C(u,v) on the mesh. Coordinates are 1-based to
// match the paper: U is the row index (1..P) and V the column index (1..Q).
type Coord struct {
	U, V int
}

// String renders the coordinate in the paper's C(u,v) notation.
func (c Coord) String() string { return fmt.Sprintf("C(%d,%d)", c.U, c.V) }

// Dir is one of the four unit moves on the mesh.
type Dir int

// The four link directions. East increases the column index, South
// increases the row index, West and North decrease them respectively.
const (
	East Dir = iota
	South
	West
	North
	numDirs
)

var dirNames = [...]string{"E", "S", "W", "N"}

// String returns a one-letter compass name for the direction.
func (d Dir) String() string {
	if d < 0 || int(d) >= len(dirNames) {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return dirNames[d]
}

// Delta returns the (du, dv) displacement of one step in direction d.
func (d Dir) Delta() (du, dv int) {
	switch d {
	case East:
		return 0, 1
	case South:
		return 1, 0
	case West:
		return 0, -1
	case North:
		return -1, 0
	}
	panic(fmt.Sprintf("mesh: invalid direction %d", int(d)))
}

// Step returns the neighboring coordinate one hop away in direction d.
// The result may fall outside the mesh; callers check with Mesh.Contains.
func (c Coord) Step(d Dir) Coord {
	du, dv := d.Delta()
	return Coord{c.U + du, c.V + dv}
}

// Manhattan returns the Manhattan (L1) distance between two cores, which is
// the length of every shortest path between them (Section 3.3).
func Manhattan(a, b Coord) int {
	return abs(a.U-b.U) + abs(a.V-b.V)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Link is a unidirectional communication link L(from→to) between two
// neighboring cores.
type Link struct {
	From, To Coord
}

// String renders the link in the paper's L(u,v)→(u',v') notation.
func (l Link) String() string {
	return fmt.Sprintf("L%s->%s", l.From, l.To)
}

// Dir returns the compass direction of the link. It panics if the two
// endpoints are not mesh neighbors.
func (l Link) Dir() Dir {
	du, dv := l.To.U-l.From.U, l.To.V-l.From.V
	switch {
	case du == 0 && dv == 1:
		return East
	case du == 1 && dv == 0:
		return South
	case du == 0 && dv == -1:
		return West
	case du == -1 && dv == 0:
		return North
	}
	panic(fmt.Sprintf("mesh: %v is not a unit link", l))
}

// Mesh is a p×q rectangular grid of cores. The zero value is not usable;
// construct meshes with New.
type Mesh struct {
	p, q int
}

// New returns a p×q mesh. Both dimensions must be at least 1.
func New(p, q int) (*Mesh, error) {
	if p < 1 || q < 1 {
		return nil, fmt.Errorf("mesh: invalid dimensions %dx%d", p, q)
	}
	return &Mesh{p: p, q: q}, nil
}

// MustNew is like New but panics on invalid dimensions. It is intended for
// tests, examples and constant-size experiment setups.
func MustNew(p, q int) *Mesh {
	m, err := New(p, q)
	if err != nil {
		panic(err)
	}
	return m
}

// P returns the number of rows.
func (m *Mesh) P() int { return m.p }

// Q returns the number of columns.
func (m *Mesh) Q() int { return m.q }

// String describes the mesh dimensions.
func (m *Mesh) String() string { return fmt.Sprintf("%dx%d mesh", m.p, m.q) }

// NumCores returns p*q.
func (m *Mesh) NumCores() int { return m.p * m.q }

// NumLinks returns the number of unidirectional links:
// 2·(p·(q−1) + (p−1)·q).
func (m *Mesh) NumLinks() int {
	return 2 * (m.p*(m.q-1) + (m.p-1)*m.q)
}

// LinkIDSpace returns the size of the dense identifier space used by
// LinkID. Identifiers are in [0, LinkIDSpace()); some identifiers in the
// space correspond to links that would leave the mesh and are never
// returned by LinkID for valid links.
func (m *Mesh) LinkIDSpace() int { return 4 * m.p * m.q }

// Contains reports whether the coordinate lies on the mesh.
func (m *Mesh) Contains(c Coord) bool {
	return c.U >= 1 && c.U <= m.p && c.V >= 1 && c.V <= m.q
}

// ValidLink reports whether l connects two neighboring cores of the mesh.
func (m *Mesh) ValidLink(l Link) bool {
	if !m.Contains(l.From) || !m.Contains(l.To) {
		return false
	}
	return Manhattan(l.From, l.To) == 1
}

// LinkID maps a valid link to a dense integer identifier in
// [0, LinkIDSpace()). The mapping is a bijection on valid links and is
// stable for a given mesh size, enabling flat-slice load accounting.
// LinkID panics if the link is not valid on the mesh.
func (m *Mesh) LinkID(l Link) int {
	if !m.ValidLink(l) {
		panic(fmt.Sprintf("mesh: invalid link %v on %v", l, m))
	}
	d := l.Dir()
	return int(d)*m.p*m.q + (l.From.U-1)*m.q + (l.From.V - 1)
}

// LinkIDFast is LinkID without the validity check — the hot-loop form for
// links that are valid by construction (links of a Manhattan path on this
// mesh, links returned by LinkByID). An invalid link yields an undefined
// id instead of a panic; use LinkID whenever the link's provenance is not
// structural.
func (m *Mesh) LinkIDFast(l Link) int {
	d := North
	switch {
	case l.To.V == l.From.V+1:
		d = East
	case l.To.U == l.From.U+1:
		d = South
	case l.To.V == l.From.V-1:
		d = West
	}
	return int(d)*m.p*m.q + (l.From.U-1)*m.q + (l.From.V - 1)
}

// LinkByID is the inverse of LinkID. It panics if id does not identify a
// valid link.
func (m *Mesh) LinkByID(id int) Link {
	if id < 0 || id >= m.LinkIDSpace() {
		panic(fmt.Sprintf("mesh: link id %d out of range", id))
	}
	d := Dir(id / (m.p * m.q))
	rest := id % (m.p * m.q)
	from := Coord{rest/m.q + 1, rest%m.q + 1}
	l := Link{From: from, To: from.Step(d)}
	if !m.ValidLink(l) {
		panic(fmt.Sprintf("mesh: link id %d maps outside the mesh", id))
	}
	return l
}

// Links returns all valid unidirectional links of the mesh in LinkID order.
func (m *Mesh) Links() []Link {
	links := make([]Link, 0, m.NumLinks())
	for d := Dir(0); d < numDirs; d++ {
		for u := 1; u <= m.p; u++ {
			for v := 1; v <= m.q; v++ {
				l := Link{From: Coord{u, v}, To: Coord{u, v}.Step(d)}
				if m.Contains(l.To) {
					links = append(links, l)
				}
			}
		}
	}
	return links
}

// Neighbors returns the destination cores of the outgoing links of c
// (the set succ(u,v) of Section 3.1) in E, S, W, N order.
func (m *Mesh) Neighbors(c Coord) []Coord {
	out := make([]Coord, 0, 4)
	for d := Dir(0); d < numDirs; d++ {
		n := c.Step(d)
		if m.Contains(n) {
			out = append(out, n)
		}
	}
	return out
}

// CoordIndex maps a coordinate of the mesh to a dense integer identifier
// in [0, NumCores()), row-major — the coordinate analogue of LinkID,
// enabling flat-slice and bitset bookkeeping over cores. CoordIndex panics
// if the coordinate lies outside the mesh.
func (m *Mesh) CoordIndex(c Coord) int {
	if !m.Contains(c) {
		panic(fmt.Sprintf("mesh: coordinate %v outside %v", c, m))
	}
	return (c.U-1)*m.q + (c.V - 1)
}

// CoordAt is the inverse of CoordIndex. It panics if the index is out of
// range.
func (m *Mesh) CoordAt(i int) Coord {
	if i < 0 || i >= m.NumCores() {
		panic(fmt.Sprintf("mesh: coordinate index %d out of range", i))
	}
	return Coord{i/m.q + 1, i%m.q + 1}
}

// Cores returns all coordinates of the mesh in row-major order.
func (m *Mesh) Cores() []Coord {
	out := make([]Coord, 0, m.NumCores())
	for u := 1; u <= m.p; u++ {
		for v := 1; v <= m.q; v++ {
			out = append(out, Coord{u, v})
		}
	}
	return out
}
