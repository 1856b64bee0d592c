package route

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/topo"
)

// Flow is one routed (fragment of a) communication: the fragment's rate
// travels entirely along Path. A 1-MP routing has exactly one flow per
// communication; an s-MP routing has at most s flows sharing the same
// communication ID (Section 3.3).
type Flow struct {
	Comm comm.Comm
	Path Path
}

// Routing is a complete routing of a communication set on a platform:
// the paper's mesh or any other topology.
type Routing struct {
	Topo  topo.Topology
	Flows []Flow
}

// Validate checks the routing against the original communication set:
// every flow carries a valid Manhattan path for its endpoints, fragment
// rates per communication sum to the original δi, every original
// communication is covered, and no communication uses more than maxPaths
// flows (0 means unbounded, the max-MP rule).
func (r Routing) Validate(orig comm.Set, maxPaths int) error {
	byID := make(map[int]comm.Comm, len(orig))
	for _, c := range orig {
		byID[c.ID] = c
	}
	rates := make(map[int]float64)
	counts := make(map[int]int)
	for _, f := range r.Flows {
		c, ok := byID[f.Comm.ID]
		if !ok {
			return fmt.Errorf("route: flow for unknown communication id %d", f.Comm.ID)
		}
		if f.Comm.Src != c.Src || f.Comm.Dst != c.Dst {
			return fmt.Errorf("route: flow %d endpoints %v->%v differ from %v->%v",
				f.Comm.ID, f.Comm.Src, f.Comm.Dst, c.Src, c.Dst)
		}
		if f.Comm.Rate <= 0 {
			return fmt.Errorf("route: flow %d has non-positive rate %g", f.Comm.ID, f.Comm.Rate)
		}
		if err := r.validatePath(f.Path, c.Src, c.Dst); err != nil {
			return fmt.Errorf("flow %d: %w", f.Comm.ID, err)
		}
		rates[f.Comm.ID] += f.Comm.Rate
		counts[f.Comm.ID]++
	}
	for id, c := range byID {
		if diff := rates[id] - c.Rate; math.Abs(diff) > 1e-6 {
			return fmt.Errorf("route: communication %d: flows carry %g, want %g", id, rates[id], c.Rate)
		}
		if maxPaths > 0 && counts[id] > maxPaths {
			return fmt.Errorf("route: communication %d split into %d paths, max %d", id, counts[id], maxPaths)
		}
	}
	return nil
}

// validatePath checks one flow path. Mesh routings keep the paper's
// Manhattan-path validation (Path.Validate); routings on other
// topologies check connectivity, per-hop link validity and endpoint
// agreement against the topology — shortest-ness is a solver property,
// not a Routing invariant, off the mesh.
func (r Routing) validatePath(p Path, src, dst mesh.Coord) error {
	tp := r.Topo
	if m, ok := tp.(*mesh.Mesh); ok {
		return p.Validate(m, src, dst)
	}
	if tp == nil {
		return fmt.Errorf("route: routing has no platform")
	}
	if len(p) == 0 {
		return fmt.Errorf("route: empty path for %v->%v", src, dst)
	}
	if p[0].From != src {
		return fmt.Errorf("route: path starts at %v, want %v", p[0].From, src)
	}
	if p[len(p)-1].To != dst {
		return fmt.Errorf("route: path ends at %v, want %v", p[len(p)-1].To, dst)
	}
	at := src
	for i, l := range p {
		if l.From != at {
			return fmt.Errorf("route: path disconnected at hop %d: %v after %v", i, l, at)
		}
		if !tp.ValidLink(l) {
			return fmt.Errorf("route: hop %d is not a link of %s: %v", i, tp.Spec(), l)
		}
		at = l.To
	}
	return nil
}

// Loads accumulates the traffic on every link of the platform, indexed
// by the topology's dense link id. The Section 3.4 validity constraint
// is that every entry stays at or below the model's maximum bandwidth.
func (r Routing) Loads() []float64 {
	return r.LoadsInto(nil)
}

// LoadsInto is Loads accumulating into dst's backing array when it has the
// capacity (pass dst[:0] or a previous result to reuse a scratch buffer,
// like the package's other *Into forms) — the buffer-reusing read path for
// hot evaluation loops.
func (r Routing) LoadsInto(dst []float64) []float64 {
	n := r.Topo.LinkIDSpace()
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
		for i := range dst {
			dst[i] = 0
		}
	}
	for _, f := range r.Flows {
		for _, l := range f.Path {
			dst[r.Topo.LinkID(l)] += f.Comm.Rate
		}
	}
	return dst
}

// Result is the evaluation of a routing under a power model.
type Result struct {
	Routing Routing
	Loads   []float64
	// Power is the static/dynamic breakdown; meaningful only when
	// Feasible is true.
	Power power.Breakdown
	// Feasible reports whether every link load fits in the available
	// bandwidth (the paper's notion of the heuristic "finding a
	// solution"); when false, Err explains the first violation.
	Feasible bool
	Err      error
}

// MaxLoad returns the largest link load of the evaluated routing.
func (res Result) MaxLoad() float64 {
	max := 0.0
	for _, l := range res.Loads {
		if l > max {
			max = l
		}
	}
	return max
}

// Evaluate computes link loads and total power for the routing. An
// infeasible routing yields Feasible=false with the overload error
// recorded; the caller decides whether that counts as heuristic failure
// (it does in all Section 6 experiments).
func Evaluate(r Routing, model power.Model) Result {
	loads := r.Loads()
	breakdown, err := model.Total(loads)
	res := Result{Routing: r, Loads: loads, Power: breakdown, Feasible: err == nil, Err: err}
	return res
}
