// Package optflow computes optimal max-MP routings under the continuous
// power model by convex multicommodity flow optimization (Frank–Wolfe).
// The paper bounds the max-MP optimum analytically (Theorems 1 and 2, via
// the ideal-sharing relaxation) but never computes it; this solver closes
// that gap, giving the heuristics an absolute baseline: any valid routing
// — single- or multi-path — dissipates at least the optimum found here
// (up to the reported duality gap), because max-MP is the least
// constrained routing rule.
//
// The objective is the dynamic power Σ_links P0·(load/unit)^α, which is
// convex for α > 1; static power is excluded (its link-activation term is
// discontinuous), matching the Section 4 regime Pleak = 0 where the
// worst-case analysis lives.
package optflow

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// Options tunes the Frank–Wolfe solve.
type Options struct {
	// MaxIters bounds the iterations (default 300).
	MaxIters int
	// Tolerance is the relative duality-gap target (default 1e-6).
	Tolerance float64
}

func (o *Options) setDefaults() {
	if o.MaxIters == 0 {
		o.MaxIters = 300
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-6
	}
}

// Solution is an optimal (within Gap) fractional max-MP routing.
type Solution struct {
	// Loads is the per-link load vector (mesh.LinkID indexed).
	Loads []float64
	// PerComm maps each communication's ID to its fractional flow per
	// link id.
	PerComm map[int]map[int]float64
	// Power is the dynamic power of Loads under the continuous model.
	Power float64
	// Gap is the final relative Frank–Wolfe duality gap: the objective
	// is within Gap·Power of the true optimum.
	Gap float64
	// Iters is the number of iterations performed.
	Iters int
}

// fwScratch pools the Frank–Wolfe working state across workspace-reusing
// solves: the two comm×link flow matrices, the marginal-cost and target
// load vectors, and the dense shortest-path DP.
type fwScratch struct {
	perComm, targetPer []float64
	costs, target      []float64
	dp                 *pathDP
}

// zeroed returns *buf resized to n and cleared, growing its backing array
// when needed.
func zeroed(buf *[]float64, n int) []float64 {
	b := *buf
	if cap(b) < n {
		b = make([]float64, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = 0
		}
	}
	*buf = b
	return b
}

// SolveWith minimizes the continuous dynamic power over all fractional
// Manhattan routings of the communication set (the max-MP rule); discrete
// frequency sets in the model are relaxed to their continuous envelope.
// It reuses the dense Frank–Wolfe state pooled in ws (nil allocates
// fresh; results are identical either way). The returned
// Solution owns its Loads and PerComm — unlike routings, it never aliases
// workspace memory.
func SolveWith(m *mesh.Mesh, model power.Model, set comm.Set, opts Options, ws *route.Workspace) (*Solution, error) {
	opts.setDefaults()
	if err := set.Validate(m); err != nil {
		return nil, err
	}
	if model.Alpha <= 1 {
		return nil, fmt.Errorf("optflow: alpha %g must exceed 1 for convexity", model.Alpha)
	}
	unit := model.FreqUnit
	if unit == 0 {
		unit = 1
	}

	// dyn and its derivative, per link.
	dyn := func(x float64) float64 { return model.P0 * math.Pow(x/unit, model.Alpha) }
	dynPrime := func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return model.P0 * model.Alpha / unit * math.Pow(x/unit, model.Alpha-1)
	}

	var sc *fwScratch
	if ws != nil {
		ws.Bind(m)
		sc = ws.Scratch("optflow.fw", func() any { return new(fwScratch) }).(*fwScratch)
	} else {
		sc = new(fwScratch)
	}
	nLinks := m.LinkIDSpace()
	loads := make([]float64, nLinks) // escapes into Solution
	// perComm and targetPer are flat comm×link matrices (row i = the
	// fractional flow of set[i] indexed by LinkID) — the dense replacement
	// for the per-iteration map-of-maps state.
	perComm := zeroed(&sc.perComm, len(set)*nLinks)
	targetPer := zeroed(&sc.targetPer, len(set)*nLinks)
	costs := zeroed(&sc.costs, nLinks)
	target := zeroed(&sc.target, nLinks)
	if sc.dp == nil || len(sc.dp.dist) != m.NumCores() {
		sc.dp = newPathDP(m)
	}
	dp := sc.dp

	// Initialize with the all-or-nothing assignment under zero loads
	// (any shortest path; XY is as good as any for a starting point).
	for i, c := range set {
		row := perComm[i*nLinks : (i+1)*nLinks]
		for _, l := range xyPath(c) {
			id := m.LinkID(l)
			row[id] += c.Rate
			loads[id] += c.Rate
		}
	}

	objective := func(x []float64) float64 {
		total := 0.0
		for _, v := range x {
			if v > 0 {
				total += dyn(v)
			}
		}
		return total
	}

	var gap float64
	iters := 0
	for ; iters < opts.MaxIters; iters++ {
		// Marginal costs at the current loads.
		for id, v := range loads {
			costs[id] = dynPrime(v)
		}
		// All-or-nothing assignment: cheapest path per communication
		// under the marginal costs (DP over the communication's DAG).
		for id := range target {
			target[id] = 0
		}
		for id := range targetPer {
			targetPer[id] = 0
		}
		linear := 0.0 // c·(x − y), the Frank–Wolfe gap numerator
		for i, c := range set {
			row := targetPer[i*nLinks : (i+1)*nLinks]
			for _, l := range dp.cheapestPath(m, c, costs) {
				id := m.LinkID(l)
				target[id] += c.Rate
				row[id] += c.Rate
			}
		}
		for id := range loads {
			linear += costs[id] * (loads[id] - target[id])
		}
		obj := objective(loads)
		if obj > 0 {
			gap = linear / obj
		} else {
			gap = 0
		}
		if gap <= opts.Tolerance {
			break
		}
		// Exact 1-D line search on the convex segment via ternary search.
		gamma := lineSearch(func(g float64) float64 {
			total := 0.0
			for id := range loads {
				v := (1-g)*loads[id] + g*target[id]
				if v > 0 {
					total += dyn(v)
				}
			}
			return total
		})
		if gamma <= 0 {
			break
		}
		for id := range loads {
			loads[id] = (1-gamma)*loads[id] + gamma*target[id]
		}
		// Merge with the historical sparsity thresholds: a shrunk share
		// at or below 1e-12 drops to zero before the target is added, and
		// a combined share at or below 1e-12 leaves the shrunk value —
		// bit-for-bit the map-based bookkeeping on flat rows.
		for idx, v := range perComm {
			x := (1 - gamma) * v
			if x <= 1e-12 {
				x = 0
			}
			if nv := x + gamma*targetPer[idx]; nv > 1e-12 {
				x = nv
			}
			perComm[idx] = x
		}
	}

	sol := &Solution{
		Loads:   loads,
		PerComm: make(map[int]map[int]float64, len(set)),
		Power:   objective(loads),
		Gap:     gap,
		Iters:   iters,
	}
	for i, c := range set {
		row := perComm[i*nLinks : (i+1)*nLinks]
		flow := make(map[int]float64)
		for id, v := range row {
			if v > 1e-12 {
				flow[id] = v
			}
		}
		sol.PerComm[c.ID] = flow
	}
	return sol, nil
}

// xyPath mirrors route.XY without importing route (keeping optflow at the
// same dependency layer as the heuristics' inputs).
func xyPath(c comm.Comm) []mesh.Link {
	var links []mesh.Link
	cur := c.Src
	for cur.V != c.Dst.V {
		next := cur
		if c.Dst.V > cur.V {
			next.V++
		} else {
			next.V--
		}
		links = append(links, mesh.Link{From: cur, To: next})
		cur = next
	}
	for cur.U != c.Dst.U {
		next := cur
		if c.Dst.U > cur.U {
			next.U++
		} else {
			next.U--
		}
		links = append(links, mesh.Link{From: cur, To: next})
		cur = next
	}
	return links
}

// pathDP is the dense scratch of the per-communication shortest-path DP:
// coord-indexed distance/predecessor arrays with generation stamps (so a
// new walk needs no clearing), plus the frontier-id and path buffers. One
// instance serves every communication of a SolveWith.
type pathDP struct {
	dist     []float64
	via      []mesh.Link
	gen      []int
	cur      int
	frontier []int
	path     []mesh.Link
}

func newPathDP(m *mesh.Mesh) *pathDP {
	n := m.NumCores()
	return &pathDP{dist: make([]float64, n), via: make([]mesh.Link, n), gen: make([]int, n)}
}

// cheapestPath runs the shortest-path DP over the communication's
// bounding-box DAG: cores are processed diagonal by diagonal, so each
// link is relaxed exactly once. The returned path aliases the DP's
// reusable buffer and is valid until the next call.
func (dp *pathDP) cheapestPath(m *mesh.Mesh, c comm.Comm, costs []float64) []mesh.Link {
	dp.cur++
	si := m.CoordIndex(c.Src)
	dp.gen[si] = dp.cur
	dp.dist[si] = 0
	ell := c.Length()
	for t := 0; t < ell; t++ {
		dp.frontier = m.AppendFrontierIDs(dp.frontier[:0], c.Src, c.Dst, t)
		for _, id := range dp.frontier {
			l := m.LinkByID(id)
			fi := m.CoordIndex(l.From)
			if dp.gen[fi] != dp.cur {
				continue
			}
			cand := dp.dist[fi] + costs[id]
			ti := m.CoordIndex(l.To)
			if dp.gen[ti] != dp.cur || cand < dp.dist[ti] {
				dp.gen[ti] = dp.cur
				dp.dist[ti] = cand
				dp.via[ti] = l
			}
		}
	}
	// Walk back from the sink.
	if cap(dp.path) < ell {
		dp.path = make([]mesh.Link, ell)
	}
	path := dp.path[:ell]
	cur := c.Dst
	for t := ell - 1; t >= 0; t-- {
		l := dp.via[m.CoordIndex(cur)]
		path[t] = l
		cur = l.From
	}
	return path
}

// lineSearch minimizes a convex function on [0,1] by ternary search.
func lineSearch(f func(float64) float64) float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if f(m1) <= f(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	g := (lo + hi) / 2
	if f(g) >= f(0) {
		return 0
	}
	return g
}
