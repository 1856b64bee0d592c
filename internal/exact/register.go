package exact

import (
	"errors"
	"fmt"

	"repro/internal/route"
	"repro/internal/solve"
)

// optRoute adapts the branch-and-bound solver to the registry. Unlike the
// heuristics, OPT proves infeasibility: when no single-path routing fits
// the bandwidth it returns an error rather than an overloaded routing.
// Under opts.Workspace the solver's own pooled Workspace rides along in a
// scratch slot, so registry callers that amortize (the experiment
// engine's per-worker scratch) solve without allocating; opts.ExactWorkers
// and opts.ExactMaxStates pass through.
func optRoute(in solve.Instance, opts solve.Options) (route.Routing, error) {
	in, err := in.OnMesh("OPT")
	if err != nil {
		return route.Routing{}, err
	}
	w := NewWorkspace()
	if opts.Workspace != nil {
		opts.Workspace.Bind(in.Mesh)
		w = opts.Workspace.Scratch("exact", func() any { return NewWorkspace() }).(*Workspace)
	}
	r, ok, _, err := w.Solve(in.Mesh, in.Model, in.Comms, Options{
		Workers:   opts.ExactWorkers,
		MaxStates: opts.ExactMaxStates,
		Route:     opts.Workspace,
		Stop:      opts.Stop,
	})
	if err != nil {
		if errors.Is(err, ErrStopped) {
			return route.Routing{}, solve.ErrStopped
		}
		return route.Routing{}, err
	}
	if !ok {
		return route.Routing{}, fmt.Errorf("exact: no feasible single-path routing exists")
	}
	return r, nil
}

func init() {
	solve.Register(solve.Func{PolicyName: "OPT", RouteFunc: optRoute})
}
