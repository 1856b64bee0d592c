package heur

import (
	"repro/internal/route"
	"repro/internal/solve"
)

// heurSolver adapts one constructive heuristic family to the registry: the
// concrete Heuristic is rebuilt per call from the caller's Options, so
// order overrides, seeds and budgets flow through solve.Options instead of
// struct literals.
type heurSolver struct {
	name  string
	build func(o solve.Options) Heuristic
}

// Name implements solve.Solver.
func (s heurSolver) Name() string { return s.name }

// Route implements solve.Solver. When the caller supplies a reuse
// workspace via Options.Workspace, the heuristic routes into it (the
// returned routing then aliases workspace memory per the route.Workspace
// contract); otherwise it allocates fresh.
func (s heurSolver) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, err := in.OnMesh(s.name)
	if err != nil {
		return route.Routing{}, err
	}
	return RouteWith(s.build(o), in, o.Workspace)
}

// orderSensitive returns the paper's heuristics with the order override
// applied to the order-sensitive ones, in presentation order.
func orderSensitive(o solve.Options) []Heuristic {
	return []Heuristic{XY{}, SG{Order: o.Order}, IG{Order: o.Order}, TB{Order: o.Order}, XYI{}, PR{}}
}

func init() {
	for _, s := range []heurSolver{
		{"XY", func(solve.Options) Heuristic { return XY{} }},
		{"SG", func(o solve.Options) Heuristic { return SG{Order: o.Order} }},
		{"IG", func(o solve.Options) Heuristic { return IG{Order: o.Order} }},
		{"TB", func(o solve.Options) Heuristic { return TB{Order: o.Order} }},
		{"XYI", func(solve.Options) Heuristic { return XYI{} }},
		{"PR", func(solve.Options) Heuristic { return PR{} }},
		{"BEST", func(o solve.Options) Heuristic { return Best{Heuristics: orderSensitive(o)} }},
		{"SA", func(o solve.Options) Heuristic { return SA{Seed: o.Seed, Iters: o.SAIters, Stop: o.Stop} }},
	} {
		solve.Register(s)
	}
}
