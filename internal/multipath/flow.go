// Package multipath implements the multi-path routing rules of Section
// 3.3: s-MP split routing (a communication divided over up to s Manhattan
// paths) and the max-MP flow pattern of Theorem 1 (Figure 4), which
// realizes the O(p) power gain over XY for single source/destination
// traffic. It also provides flow-to-path decomposition so flow fields can
// be materialized as route.Routing values.
package multipath

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// FlowField is a link-indexed flow of a single commodity from Src to Dst.
// Flows are stored in a dense per-link vector (mesh.LinkID indexed), so
// accumulation, evaluation and decomposition run map-free.
type FlowField struct {
	Mesh     *mesh.Mesh
	Src, Dst mesh.Coord
	Rate     float64 // total rate injected at Src and absorbed at Dst
	links    []float64
}

// NewFlowField returns an empty flow field.
func NewFlowField(m *mesh.Mesh, src, dst mesh.Coord, rate float64) *FlowField {
	return &FlowField{Mesh: m, Src: src, Dst: dst, Rate: rate, links: make([]float64, m.LinkIDSpace())}
}

// Add adds rate to link l.
func (f *FlowField) Add(l mesh.Link, rate float64) {
	f.links[f.Mesh.LinkID(l)] += rate
}

// Validate checks flow conservation: Rate out of Src, Rate into Dst, and
// in-flow equal to out-flow at every other core; all link flows must be
// non-negative.
func (f *FlowField) Validate() error {
	net := make([]float64, f.Mesh.NumCores())
	for id, x := range f.links {
		if x == 0 {
			continue
		}
		if x < -1e-9 {
			return fmt.Errorf("multipath: negative flow %g on %v", x, f.Mesh.LinkByID(id))
		}
		l := f.Mesh.LinkByID(id)
		net[f.Mesh.CoordIndex(l.From)] += x
		net[f.Mesh.CoordIndex(l.To)] -= x
	}
	for i, x := range net {
		c := f.Mesh.CoordAt(i)
		want := 0.0
		switch c {
		case f.Src:
			want = f.Rate
		case f.Dst:
			want = -f.Rate
		}
		if math.Abs(x-want) > 1e-6 {
			return fmt.Errorf("multipath: conservation violated at %v: net %g, want %g", c, x, want)
		}
	}
	return nil
}

// Power evaluates the flow's link loads under the model (no copy).
func (f *FlowField) Power(model power.Model) (power.Breakdown, error) {
	return model.Total(f.links)
}

// Decompose extracts a path decomposition of the flow: a set of flows
// along explicit Manhattan paths whose superposition is the field. The
// algorithm repeatedly follows the largest-rate outgoing link from Src and
// peels off the bottleneck rate; it terminates because each round zeroes
// at least one link. An error is returned if the field is not a valid
// conserved flow or a walk fails to make progress (non-Manhattan cycles).
func (f *FlowField) Decompose(id int) ([]route.Flow, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	residual := make([]float64, len(f.links))
	for lid, x := range f.links {
		if x > 1e-12 {
			residual[lid] = x
		}
	}
	var flows []route.Flow
	remaining := f.Rate
	for remaining > 1e-9 {
		var path route.Path
		cur := f.Src
		bottleneck := math.Inf(1)
		for cur != f.Dst {
			bestID, bestRate := -1, 0.0
			for _, n := range f.Mesh.Neighbors(cur) {
				lid := f.Mesh.LinkID(mesh.Link{From: cur, To: n})
				if r := residual[lid]; r > bestRate+1e-12 {
					bestID, bestRate = lid, r
				}
			}
			if bestID < 0 {
				return nil, fmt.Errorf("multipath: stuck at %v during decomposition", cur)
			}
			path = append(path, f.Mesh.LinkByID(bestID))
			if bestRate < bottleneck {
				bottleneck = bestRate
			}
			cur = f.Mesh.LinkByID(bestID).To
			if len(path) > f.Mesh.NumLinks() {
				return nil, fmt.Errorf("multipath: cyclic flow detected")
			}
		}
		if bottleneck > remaining {
			bottleneck = remaining
		}
		for _, l := range path {
			lid := f.Mesh.LinkID(l)
			residual[lid] -= bottleneck
			if residual[lid] <= 1e-12 {
				residual[lid] = 0
			}
		}
		flows = append(flows, route.Flow{
			Comm: comm.Comm{ID: id, Src: f.Src, Dst: f.Dst, Rate: bottleneck},
			Path: path,
		})
		remaining -= bottleneck
	}
	return flows, nil
}
