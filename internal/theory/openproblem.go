package theory

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/exact"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// SingleSourceGain addresses the open problem stated in the paper's
// conclusion: "estimate how much can be gained by a single-path Manhattan
// routing when all communications share the same source and destination
// nodes". For n unit-rate communications from C(1,1) to C(p,p) it returns
// the XY power (all n stacked on one path) and the best single-path
// Manhattan power, computed exactly by branch-and-bound for small sizes or
// by the BEST heuristic when exact search would blow up (exactLimit
// leaves).
func SingleSourceGain(p, n int, alpha float64) (pxy, p1mp float64, exactOpt bool, err error) {
	if p < 2 || n < 1 {
		return 0, 0, false, fmt.Errorf("theory: invalid size p=%d n=%d", p, n)
	}
	m := mesh.MustNew(p, p)
	model := power.Theory(alpha)
	model.MaxBW = float64(n) * float64(p) * 10 // effectively unconstrained
	set := make(comm.Set, 0, n)
	for i := 0; i < n; i++ {
		set = append(set, comm.Comm{
			ID: i, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: p, V: p}, Rate: 1,
		})
	}
	// XY stacks everything: 2(p−1) links at load n.
	pxy = 2 * float64(p-1) * math.Pow(float64(n), alpha)

	paths, ok := mesh.PathCount64(mesh.Coord{U: 1, V: 1}, mesh.Coord{U: p, V: p})
	leaves := math.Pow(float64(paths), float64(n))
	const exactLimit = 2e6
	if ok && leaves <= exactLimit {
		r, feasible, err := exact.Solve(m, model, set)
		if err != nil {
			return 0, 0, false, err
		}
		if !feasible {
			return 0, 0, false, fmt.Errorf("theory: unconstrained instance infeasible")
		}
		return pxy, route.Evaluate(r, model).Power.Total(), true, nil
	}
	r, err := heur.Best{}.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
	if err != nil {
		return 0, 0, false, err
	}
	return pxy, route.Evaluate(r, model).Power.Total(), false, nil
}
