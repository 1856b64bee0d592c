package multipath

import (
	"repro/internal/heur"
	"repro/internal/route"
	"repro/internal/solve"
)

// smpSolver registers one equal-split policy ("2MP", "4MP"): split every
// communication into s equal fragments and route the fragment stream with
// the TB greedy.
// Options.MaxPaths overrides the split count; Options.Order reaches the
// inner greedy.
type smpSolver struct {
	name string
	s    int
}

// Name implements solve.Solver.
func (s smpSolver) Name() string { return s.name }

// Route implements solve.Solver.
func (s smpSolver) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, err := in.OnMesh(s.name)
	if err != nil {
		return route.Routing{}, err
	}
	split := s.s
	if o.MaxPaths > 0 {
		split = o.MaxPaths
	}
	return EqualSplit{S: split, Inner: heur.TB{Order: o.Order}}.RouteWith(in.Mesh, in.Model, in.Comms, o.Workspace)
}

func init() {
	solve.Register(smpSolver{name: "2MP", s: 2})
	solve.Register(smpSolver{name: "4MP", s: 4})
}
