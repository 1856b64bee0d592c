// Package tabroute implements TABLE, the topology-generic table-driven
// routing policy: every communication follows its topology's one
// deterministic shortest path (the route an rtable.NextHops forwarding
// table ships to the routers — the deployment mode of Shchegoleva et
// al.'s circulant NoCs). TABLE is the baseline policy for non-mesh
// topologies, the role XY plays on the mesh; on a mesh instance it
// produces exactly the XY routing, since the mesh's canonical route is
// the XY path.
//
// TABLE is deterministic, load-oblivious, and O(Σ path length) per
// solve with zero allocations under a pooled workspace. It registers
// itself under the name "TABLE" and carries the solve.TopologyAware
// marker.
package tabroute

import (
	"repro/internal/route"
	"repro/internal/solve"
)

func init() { solve.Register(Solver{}) }

// Solver is the TABLE policy.
type Solver struct{}

// Name implements solve.Solver.
func (Solver) Name() string { return "TABLE" }

// RoutesTopologies marks TABLE as topology-capable (solve.TopologyAware).
func (Solver) RoutesTopologies() bool { return true }

// Route implements solve.Solver: one table route per communication, in
// set order. Without a caller's workspace it routes into a fresh one.
func (Solver) Route(in solve.Instance, opts solve.Options) (route.Routing, error) {
	if err := in.Validate(); err != nil {
		return route.Routing{}, err
	}
	tp := in.Topology()
	ws := opts.Workspace
	if ws == nil {
		ws = route.NewWorkspace()
	}
	ws.Bind(tp)
	ps := ws.Paths()
	ps.ResetFor(in.Comms)
	flows := ws.Flows(len(in.Comms))
	for _, c := range in.Comms {
		p := route.Path(tp.AppendRoute(ps.Acquire(c.ID, tp.Distance(c.Src, c.Dst)), c.Src, c.Dst))
		ps.Set(c.ID, p)
		flows = append(flows, route.Flow{Comm: c, Path: p})
	}
	ws.SetFlows(flows)
	return route.Routing{Topo: tp, Flows: flows}, nil
}

var _ solve.TopologyAware = Solver{}
