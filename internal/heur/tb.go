package heur

import (
	"math"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/route"
	"repro/internal/solve"
)

var inf = math.Inf(1)

// TB is the Two-Bend heuristic of Section 5.3: communications are
// processed by decreasing weight, and for each one every Manhattan path
// with at most two bends is tried — there are |Δu|+|Δv| of them — keeping
// the path that yields the lowest power. Options.Order overrides the
// processing order.
type TB struct{}

// Name returns "TB".
func (TB) Name() string { return "TB" }

// Route implements solve.Solver.
func (h TB) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, ws, err := prepare(h.Name(), in, o)
	if err != nil {
		return route.Routing{}, err
	}
	ps := ws.Paths()
	loads := ws.Tracker()
	sc := scratchOf(ws)
	ev := evaluatorFor(ws, in.Model)
	for _, c := range sc.orderedInto(in.Comms, o.Order) {
		bestDelta := inf
		for k, n := 0, twoBendCountOf(c.Src, c.Dst); k < n; k++ {
			sc.cand = appendNthTwoBend(sc.cand[:0], c.Src, c.Dst, k)
			delta := 0.0
			for _, l := range sc.cand {
				delta += loads.DeltaPowerEv(ev, l, c.Rate)
			}
			if k == 0 || delta < bestDelta {
				sc.cand, sc.best = sc.best, sc.cand
				bestDelta = delta
			}
		}
		loads.AddPath(sc.best, c.Rate)
		ps.SetCopy(c.ID, sc.best)
	}
	return singlePathRouting(in, ws), nil
}

// TwoBendPaths enumerates every Manhattan path from src to dst with at
// most two bends. For a communication spanning Δu rows and Δv columns
// there are Δu+Δv such paths (Section 5.3): the Δv+1 horizontal-vertical-
// horizontal paths parameterized by the column of the vertical segment
// (whose extremes are the XY and YX paths), plus the Δu−1 vertical-
// horizontal-vertical paths with an interior crossing row. Straight-line
// communications have the single straight path.
func TwoBendPaths(src, dst mesh.Coord) []route.Path {
	out := make([]route.Path, twoBendCountOf(src, dst))
	for k := range out {
		out[k] = appendNthTwoBend(nil, src, dst, k)
	}
	return out
}

// twoBendCountOf returns the number of two-bend paths from src to dst:
// |Δu|+|Δv|, or 1 for straight lines (Section 5.3).
func twoBendCountOf(src, dst mesh.Coord) int {
	du := abs(dst.U - src.U)
	dv := abs(dst.V - src.V)
	if du == 0 || dv == 0 {
		return 1
	}
	return du + dv
}

// appendNthTwoBend appends the k-th path of the TwoBendPaths enumeration
// onto p (allocation-free given capacity): paths 0..|Δv| are the H-V-H
// paths by vertical-segment column from src.V to dst.V, paths |Δv|+1
// onward the V-H-V paths by interior crossing row.
func appendNthTwoBend(p route.Path, src, dst mesh.Coord, k int) route.Path {
	du, dv := dst.U-src.U, dst.V-src.V
	if du == 0 || dv == 0 {
		return route.AppendXY(p, src, dst)
	}
	if nh := abs(dv) + 1; k < nh {
		// H to (src.U, col), V to (dst.U, col), H to dst.
		col := src.V + k*sign(dv)
		p = appendHoriz(p, src, col)
		p = appendVert(p, mesh.Coord{U: src.U, V: col}, dst.U)
		return appendHoriz(p, mesh.Coord{U: dst.U, V: col}, dst.V)
	} else {
		// V to (row, src.V), H to (row, dst.V), V to dst.
		row := src.U + (k-nh+1)*sign(du)
		p = appendVert(p, src, row)
		p = appendHoriz(p, mesh.Coord{U: row, V: src.V}, dst.V)
		return appendVert(p, mesh.Coord{U: row, V: dst.V}, dst.U)
	}
}

// appendHoriz appends the straight horizontal path from c to column col.
func appendHoriz(p route.Path, c mesh.Coord, col int) route.Path {
	return route.AppendXY(p, c, mesh.Coord{U: c.U, V: col})
}

// appendVert appends the straight vertical path from c to row row.
func appendVert(p route.Path, c mesh.Coord, row int) route.Path {
	return route.AppendXY(p, c, mesh.Coord{U: row, V: c.V})
}

func sign(x int) int {
	if x < 0 {
		return -1
	}
	return 1
}

// twoBendCount returns the number of two-bend paths, |Δu|+|Δv|, used by
// tests to cross-check the enumeration against Section 5.3.
func twoBendCount(c comm.Comm) int {
	return twoBendCountOf(c.Src, c.Dst)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
