package heur

import (
	"fmt"

	"repro/internal/route"
	"repro/internal/solve"
)

// Best is the virtual heuristic of Section 6: it runs the six paper
// heuristics on the instance and keeps the feasible routing with the
// lowest power. When no candidate is feasible it returns the routing with
// the smallest maximum link load, so the caller's evaluation still reports
// the failure in the usual way. Options reach every candidate.
type Best struct{}

// Name returns "BEST".
func (Best) Name() string { return "BEST" }

// Route implements solve.Solver.
func (b Best) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	return bestOf(b.Name(), paperHeuristics, in, o)
}

// bestOf routes the instance with every candidate on one shared workspace
// and keeps the best routing by BEST's rule. Each time the lead changes
// the leader's paths are snapshotted into a pooled path-set (a copy of a
// few hundred links); the snapshot is copied back into the workspace's
// slots at the end, which costs microseconds where re-running the winning
// heuristic costs milliseconds.
func bestOf(policy string, cands []solve.Solver, in solve.Instance, o solve.Options) (route.Routing, error) {
	in, ws, err := prepare(policy, in, o)
	if err != nil {
		return route.Routing{}, err
	}
	o.Workspace = ws
	sc := scratchOf(ws)
	winner, release := sc.acquireWinner()
	defer release()
	bestIdx, loIdx := -1, -1
	var bestPow, loMax float64
	for i, h := range cands {
		r, err := h.Route(in, o)
		if err != nil {
			return route.Routing{}, fmt.Errorf("%s: %s: %w", policy, h.Name(), err)
		}
		tr := ws.Tracker()
		tr.SetRouting(r)
		bd, ok := tr.Evaluate(in.Model)
		leads := false
		if ok {
			if bestIdx < 0 || bd.Total() < bestPow {
				bestIdx, bestPow = i, bd.Total()
				leads = true
			}
		} else if ml := tr.MaxLoad(); bestIdx < 0 && (loIdx < 0 || ml < loMax) {
			loIdx, loMax = i, ml
			leads = true
		}
		if leads {
			winner.ResetFor(in.Comms)
			for _, f := range r.Flows {
				winner.SetCopy(f.Comm.ID, f.Path)
			}
		}
	}
	ps := ws.Paths()
	ps.ResetFor(in.Comms)
	for _, c := range in.Comms {
		ps.SetCopy(c.ID, winner.Get(c.ID))
	}
	return singlePathRouting(in, ws), nil
}
