package mesh

import "fmt"

// The methods in this file make *Mesh satisfy the repo-wide
// topo.Topology interface (see internal/topo). The mesh is the canonical
// topology: its closed-form link identifiers, Manhattan distance and
// XY-order routes are what every other implementation is measured
// against, and the rest of the stack keeps calling the concrete *Mesh
// fast paths (LinkIDFast, PathCount64, AppendFrontierIDs) whenever the
// platform is known to be a mesh.

// Name returns the topology family name, "mesh".
func (m *Mesh) Name() string { return "mesh" }

// Spec returns the canonical topology spec string, e.g. "mesh:8x8".
// Two topologies with equal Spec strings are interchangeable: same core
// set, same link identifier space, same routes.
func (m *Mesh) Spec() string { return fmt.Sprintf("mesh:%dx%d", m.p, m.q) }

// Distance returns the length of every shortest path between two cores —
// on the mesh, the Manhattan distance.
func (m *Mesh) Distance(a, b Coord) int { return Manhattan(a, b) }

// Carrier returns the coordinate-carrier grid of the topology: a plain
// mesh over the same core set, used by workload generators and scenario
// sources to draw endpoints. For the mesh itself this is the mesh.
func (m *Mesh) Carrier() *Mesh { return m }

// AppendRoute appends one deterministic shortest path from src to dst to
// buf and returns the extended slice. The mesh's canonical route is the
// XY-order Manhattan path: all horizontal moves first, then all vertical
// moves. AppendRoute(buf, c, c) appends nothing.
func (m *Mesh) AppendRoute(buf []Link, src, dst Coord) []Link {
	if !m.Contains(src) || !m.Contains(dst) {
		panic(fmt.Sprintf("mesh: route endpoints %v -> %v outside %v", src, dst, m))
	}
	at := src
	for at.V != dst.V {
		d := East
		if dst.V < at.V {
			d = West
		}
		next := at.Step(d)
		buf = append(buf, Link{From: at, To: next})
		at = next
	}
	for at.U != dst.U {
		d := South
		if dst.U < at.U {
			d = North
		}
		next := at.Step(d)
		buf = append(buf, Link{From: at, To: next})
		at = next
	}
	return buf
}
