package optflow

import (
	"fmt"

	"repro/internal/multipath"
	"repro/internal/route"
	"repro/internal/solve"
)

// maxMPRoute computes the continuous-optimal max-MP fractional routing
// with Frank–Wolfe and materializes it as explicit per-path flows via flow
// decomposition. The caller's evaluation still applies the instance's own
// (possibly discrete) model, so quantization costs appear in the reported
// power. Options.FWMaxIters and Options.FWTolerance bound the solve.
func maxMPRoute(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, err := in.OnMesh("MAXMP")
	if err != nil {
		return route.Routing{}, err
	}
	sol, err := SolveWith(in.Mesh, in.Model, in.Comms,
		Options{MaxIters: o.FWMaxIters, Tolerance: o.FWTolerance}, o.Workspace)
	if err != nil {
		return route.Routing{}, err
	}
	var flows []route.Flow
	for _, c := range in.Comms {
		field := multipath.NewFlowField(in.Mesh, c.Src, c.Dst, c.Rate)
		for id, v := range sol.PerComm[c.ID] {
			field.Add(in.Mesh.LinkByID(id), v)
		}
		part, err := field.Decompose(c.ID)
		if err != nil {
			return route.Routing{}, fmt.Errorf("optflow: decomposing comm %d: %w", c.ID, err)
		}
		flows = append(flows, part...)
	}
	return route.Routing{Topo: in.Mesh, Flows: flows}, nil
}

func init() {
	solve.Register(solve.Func{PolicyName: "MAXMP", RouteFunc: maxMPRoute})
}
