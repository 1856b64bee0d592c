package heur

import (
	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/route"
	"repro/internal/solve"
)

// SG is the Simple Greedy heuristic of Section 5.1: communications are
// routed one by one (by decreasing weight), each path built hop by hop,
// always taking the least-loaded of the one or two admissible next links.
// Ties go to the link whose endpoint is closest to the straight segment
// from source to sink ("the link that gets closer to the diagonal").
// Options.Order overrides the processing order.
type SG struct{}

// Name returns "SG".
func (SG) Name() string { return "SG" }

// Route implements solve.Solver.
func (h SG) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, ws, err := prepare(h.Name(), in, o)
	if err != nil {
		return route.Routing{}, err
	}
	ps := ws.Paths()
	loads := ws.Tracker()
	sc := scratchOf(ws)
	for _, c := range sc.orderedInto(in.Comms, o.Order) {
		p := greedyPathInto(ps.Acquire(c.ID, c.Length()), c,
			func(cand mesh.Link, _ mesh.Coord) float64 {
				return loads.LoadID(in.Mesh.LinkIDFast(cand))
			})
		loads.AddPath(p, c.Rate)
		ps.Set(c.ID, p)
	}
	return singlePathRouting(in, ws), nil
}

// greedyPathInto walks from src to dst appending onto p, at each hop
// scoring the admissible next links with cost (lower is better) and
// breaking ties by closeness of the link's endpoint to the source-sink
// diagonal, then by move order.
func greedyPathInto(p route.Path, c comm.Comm,
	cost func(cand mesh.Link, next mesh.Coord) float64) route.Path {

	box := mesh.BoxOf(c.Src, c.Dst)
	d := c.Direction()
	cur := c.Src
	for cur != c.Dst {
		var best mesh.Link
		bestCost, bestDev := 0.0, 0.0
		found := false
		for _, mv := range d.Moves() {
			next := cur.Step(mv)
			if !box.Contains(next) {
				continue
			}
			cand := mesh.Link{From: cur, To: next}
			cc := cost(cand, next)
			dev := diagDeviation(c, next)
			if !found || cc < bestCost || (cc == bestCost && dev < bestDev) {
				best, bestCost, bestDev, found = cand, cc, dev, true
			}
		}
		if !found {
			// Unreachable: the box always offers a move until dst.
			panic("heur: greedy walk stuck before destination")
		}
		p = append(p, best)
		cur = best.To
	}
	return p
}

// diagDeviation measures how far a core sits from the straight segment
// between the communication's endpoints: the absolute cross product of
// (dst−src) with (c−src). Zero on the segment, growing with distance.
func diagDeviation(g comm.Comm, c mesh.Coord) float64 {
	du := float64(g.Dst.U - g.Src.U)
	dv := float64(g.Dst.V - g.Src.V)
	pu := float64(c.U - g.Src.U)
	pv := float64(c.V - g.Src.V)
	cross := du*pv - dv*pu
	if cross < 0 {
		return -cross
	}
	return cross
}
