// Package torus implements the p×q wraparound mesh (2-D torus) as a
// topo.Topology. Every core has exactly four outgoing links — East,
// South, West, North — with the grid edges wrapping around, so the
// torus is vertex-transitive and its diameter is floor(p/2)+floor(q/2)
// instead of the mesh's (p-1)+(q-1).
//
// The link identifier layout mirrors the mesh exactly
// (dir·p·q + (u-1)·q + (v-1), space 4·p·q) but every identifier is
// valid. Routes come from an rtable.NextHops table, compiled on the
// first Distance or AppendRoute, with smallest-link-id tie-breaks; both
// dimensions must be at least 3 so that a link value determines its
// direction (with a dimension of 2 the wrapping and non-wrapping hop
// would be the same core pair).
//
// Importing this package registers the "torus" family with topo.Parse
// under the spec form "torus:PxQ".
package torus

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/rtable"
	"repro/internal/topo"
)

func init() {
	topo.Register("torus", func(arg string) (topo.Topology, error) {
		p, q, err := topo.ParseGrid(arg)
		if err != nil {
			return nil, err
		}
		return New(p, q)
	})
}

// Torus is a p×q wraparound mesh. Construct with New.
type Torus struct {
	p, q    int
	carrier *mesh.Mesh
	hops    rtable.LazyNextHops
}

// New returns a p×q torus. Both dimensions must be at least 3.
func New(p, q int) (*Torus, error) {
	if p < 3 || q < 3 {
		return nil, fmt.Errorf("torus: dimensions %dx%d too small (both must be >= 3)", p, q)
	}
	return &Torus{p: p, q: q, carrier: mesh.MustNew(p, q)}, nil
}

// Name returns "torus".
func (t *Torus) Name() string { return "torus" }

// Spec returns the canonical spec string, e.g. "torus:8x8".
func (t *Torus) Spec() string { return fmt.Sprintf("torus:%dx%d", t.p, t.q) }

// String describes the torus dimensions.
func (t *Torus) String() string { return fmt.Sprintf("%dx%d torus", t.p, t.q) }

// NumCores returns p·q.
func (t *Torus) NumCores() int { return t.p * t.q }

// NumLinks returns 4·p·q: four outgoing links per core, all wrapping.
func (t *Torus) NumLinks() int { return 4 * t.p * t.q }

// LinkIDSpace equals NumLinks: on the torus every identifier in the
// mesh-shaped space dir·p·q + (u-1)·q + (v-1) is a valid link.
func (t *Torus) LinkIDSpace() int { return 4 * t.p * t.q }

// Contains reports whether the coordinate lies on the torus.
func (t *Torus) Contains(c mesh.Coord) bool { return t.carrier.Contains(c) }

// CoordIndex maps a coordinate to its dense row-major index.
func (t *Torus) CoordIndex(c mesh.Coord) int { return t.carrier.CoordIndex(c) }

// CoordAt inverts CoordIndex.
func (t *Torus) CoordAt(i int) mesh.Coord { return t.carrier.CoordAt(i) }

// Cores returns all coordinates in row-major order.
func (t *Torus) Cores() []mesh.Coord { return t.carrier.Cores() }

// Carrier returns the plain p×q mesh over the torus's core set.
func (t *Torus) Carrier() *mesh.Mesh { return t.carrier }

// step returns the neighbor of c one hop in direction d, wrapping.
func (t *Torus) step(c mesh.Coord, d mesh.Dir) mesh.Coord {
	n := c.Step(d)
	switch {
	case n.U < 1:
		n.U = t.p
	case n.U > t.p:
		n.U = 1
	case n.V < 1:
		n.V = t.q
	case n.V > t.q:
		n.V = 1
	}
	return n
}

// dirOf returns the wrap-aware direction of a torus link, or ok=false
// if the endpoints are not torus neighbors.
func (t *Torus) dirOf(l mesh.Link) (mesh.Dir, bool) {
	du := ((l.To.U-l.From.U)%t.p + t.p) % t.p
	dv := ((l.To.V-l.From.V)%t.q + t.q) % t.q
	switch {
	case du == 0 && dv == 1:
		return mesh.East, true
	case du == 1 && dv == 0:
		return mesh.South, true
	case du == 0 && dv == t.q-1:
		return mesh.West, true
	case du == t.p-1 && dv == 0:
		return mesh.North, true
	}
	return 0, false
}

// ValidLink reports whether l connects two torus neighbors.
func (t *Torus) ValidLink(l mesh.Link) bool {
	if !t.Contains(l.From) || !t.Contains(l.To) {
		return false
	}
	_, ok := t.dirOf(l)
	return ok
}

// LinkID maps a valid link to its dense identifier; it panics on an
// invalid link, like mesh.LinkID.
func (t *Torus) LinkID(l mesh.Link) int {
	d, ok := t.dirOf(l)
	if !ok || !t.Contains(l.From) || !t.Contains(l.To) {
		panic(fmt.Sprintf("torus: invalid link %v on %v", l, t))
	}
	return int(d)*t.p*t.q + (l.From.U-1)*t.q + (l.From.V - 1)
}

// LinkByID inverts LinkID.
func (t *Torus) LinkByID(id int) mesh.Link {
	if id < 0 || id >= t.LinkIDSpace() {
		panic(fmt.Sprintf("torus: link id %d out of range", id))
	}
	d := mesh.Dir(id / (t.p * t.q))
	rest := id % (t.p * t.q)
	from := mesh.Coord{U: rest/t.q + 1, V: rest%t.q + 1}
	return mesh.Link{From: from, To: t.step(from, d)}
}

// Links returns all 4·p·q links in ascending LinkID order.
func (t *Torus) Links() []mesh.Link {
	out := make([]mesh.Link, 0, t.NumLinks())
	for id := 0; id < t.LinkIDSpace(); id++ {
		out = append(out, t.LinkByID(id))
	}
	return out
}

// Neighbors returns the four wraparound neighbors in E, S, W, N order.
func (t *Torus) Neighbors(c mesh.Coord) []mesh.Coord {
	return []mesh.Coord{
		t.step(c, mesh.East),
		t.step(c, mesh.South),
		t.step(c, mesh.West),
		t.step(c, mesh.North),
	}
}

// Distance returns the wrap-aware shortest hop count
// min(|Δu|, p−|Δu|) + min(|Δv|, q−|Δv|), read from the compiled table.
func (t *Torus) Distance(a, b mesh.Coord) int {
	return t.hops.Of(t).Dist(t.CoordIndex(a), t.CoordIndex(b))
}

// AppendRoute appends the table's deterministic shortest path from src
// to dst onto buf.
func (t *Torus) AppendRoute(buf []mesh.Link, src, dst mesh.Coord) []mesh.Link {
	return t.hops.Of(t).AppendRoute(buf, t, src, dst)
}

var _ topo.Topology = (*Torus)(nil)
