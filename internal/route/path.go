// Package route represents routings of communication sets on the mesh:
// Manhattan paths, (multi-path) flows with their rates, link-load
// accounting, validity checking against the Section 3.4 bandwidth
// constraint, and power evaluation under a power.Model.
//
// It also hosts the dense solver workspace layer (Workspace, PathSet):
// reusable flat-slice state every routing policy solves against, so
// repeated solves on one goroutine allocate nothing on the hot path. See
// Workspace for the pooling contract.
package route

import (
	"fmt"

	"repro/internal/mesh"
)

// Path is a sequence of adjacent directed links (Section 3.2). A valid
// path for a communication is a Manhattan (shortest) path: its length
// equals the Manhattan distance between the endpoints and every hop
// advances the communication's diagonal index by one.
type Path []mesh.Link

// Src returns the first core of the path, or ok=false for an empty path.
func (p Path) Src() (mesh.Coord, bool) {
	if len(p) == 0 {
		return mesh.Coord{}, false
	}
	return p[0].From, true
}

// Dst returns the last core of the path, or ok=false for an empty path.
func (p Path) Dst() (mesh.Coord, bool) {
	if len(p) == 0 {
		return mesh.Coord{}, false
	}
	return p[len(p)-1].To, true
}

// Validate checks that p is a valid Manhattan path from src to dst on m:
// connected, made of valid links, of minimal length, and monotone along
// the communication's quadrant.
func (p Path) Validate(m *mesh.Mesh, src, dst mesh.Coord) error {
	ell := mesh.Manhattan(src, dst)
	if len(p) != ell {
		return fmt.Errorf("route: path length %d, want Manhattan distance %d", len(p), ell)
	}
	if ell == 0 {
		return nil
	}
	d := mesh.DirectionOf(src, dst)
	cur := src
	for i, l := range p {
		if !m.ValidLink(l) {
			return fmt.Errorf("route: hop %d: invalid link %v", i, l)
		}
		if l.From != cur {
			return fmt.Errorf("route: hop %d: link %v does not start at %v", i, l, cur)
		}
		if m.DiagIndex(d, l.To) != m.DiagIndex(d, l.From)+1 {
			return fmt.Errorf("route: hop %d: link %v does not advance diagonal family %v", i, l, d)
		}
		cur = l.To
	}
	if cur != dst {
		return fmt.Errorf("route: path ends at %v, want %v", cur, dst)
	}
	return nil
}

// FromMoves builds the path starting at src and following the given unit
// moves. No mesh validation is performed; pair with Validate.
func FromMoves(src mesh.Coord, moves []mesh.Dir) Path {
	p := make(Path, 0, len(moves))
	cur := src
	for _, d := range moves {
		next := cur.Step(d)
		p = append(p, mesh.Link{From: cur, To: next})
		cur = next
	}
	return p
}

// XY returns the dimension-ordered XY path from src to dst: all horizontal
// hops first, then all vertical hops (Section 1: "data is first forwarded
// horizontally, and then vertically").
func XY(src, dst mesh.Coord) Path {
	return AppendXY(make(Path, 0, mesh.Manhattan(src, dst)), src, dst)
}

// AppendXY appends the XY path from src to dst onto p — the allocation-free
// form of XY for workspace-reusing hot loops (pass p[:0] to rebuild into a
// scratch buffer).
func AppendXY(p Path, src, dst mesh.Coord) Path {
	h, v := mesh.East, mesh.South
	if dst.V < src.V {
		h = mesh.West
	}
	if dst.U < src.U {
		v = mesh.North
	}
	cur := src
	for cur.V != dst.V {
		next := cur.Step(h)
		p = append(p, mesh.Link{From: cur, To: next})
		cur = next
	}
	for cur.U != dst.U {
		next := cur.Step(v)
		p = append(p, mesh.Link{From: cur, To: next})
		cur = next
	}
	return p
}

// YX returns the YX path: all vertical hops first, then horizontal.
func YX(src, dst mesh.Coord) Path {
	moves := make([]mesh.Dir, 0, mesh.Manhattan(src, dst))
	h, v := mesh.East, mesh.South
	if dst.V < src.V {
		h = mesh.West
	}
	if dst.U < src.U {
		v = mesh.North
	}
	for i := 0; i < abs(dst.U-src.U); i++ {
		moves = append(moves, v)
	}
	for i := 0; i < abs(dst.V-src.V); i++ {
		moves = append(moves, h)
	}
	return FromMoves(src, moves)
}

// Bends counts the direction changes along the path (0 for straight
// lines and empty paths). The TB heuristic restricts itself to paths with
// at most two bends.
func (p Path) Bends() int {
	if len(p) < 2 {
		return 0
	}
	bends := 0
	for i := 1; i < len(p); i++ {
		if p[i].Dir() != p[i-1].Dir() {
			bends++
		}
	}
	return bends
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	out := make(Path, len(p))
	copy(out, p)
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
