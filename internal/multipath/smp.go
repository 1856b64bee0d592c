package multipath

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// EqualSplit is an s-MP routing heuristic (the multi-path extension the
// paper's conclusion calls for): every communication is split into S equal
// fragments, and the fragment stream is routed by an inner single-path
// heuristic, so different fragments of one communication may take
// different Manhattan paths and the per-link pressure drops by up to S.
type EqualSplit struct {
	// S is the maximum number of paths per communication (s of s-MP).
	S int
	// Inner is the 1-MP heuristic applied to the fragment set; nil means
	// the SG greedy.
	Inner heur.Heuristic
}

// smpScratch pools the fragment set and the fragment→original ID table
// across workspace-reusing calls.
type smpScratch struct {
	frags  comm.Set
	origID []int
}

// RouteWith splits, routes the fragments with the inner heuristic, and
// reassembles a multi-path routing carrying the original communication
// IDs; the returned routing satisfies Validate(set, S). A reusable dense
// workspace (nil allowed) serves the fragment buffers and the inner
// heuristic, and the returned routing then aliases workspace memory per
// the route.Workspace contract.
func (e EqualSplit) RouteWith(m *mesh.Mesh, model power.Model, set comm.Set, ws *route.Workspace) (route.Routing, error) {
	if e.S < 1 {
		return route.Routing{}, fmt.Errorf("multipath: split count %d < 1", e.S)
	}
	inner := e.Inner
	if inner == nil {
		inner = heur.SG{}
	}
	var sc *smpScratch
	if ws != nil {
		ws.Bind(m)
		sc = ws.Scratch("multipath.smp", func() any { return new(smpScratch) }).(*smpScratch)
	} else {
		sc = &smpScratch{}
	}
	// Fragment with fresh dense IDs; remember the original ID per fragment.
	// AppendSplitEqual writes the fragments straight into the pooled
	// buffer — the per-comm intermediate slices a split-and-copy would build
	// were the bulk of this policy's per-call allocations.
	frags := sc.frags[:0]
	origID := sc.origID[:0]
	for _, c := range set {
		lo := len(frags)
		var err error
		if frags, err = c.AppendSplitEqual(frags, e.S); err != nil {
			return route.Routing{}, err
		}
		for i := lo; i < len(frags); i++ {
			frags[i].ID = i
			origID = append(origID, c.ID)
		}
	}
	sc.frags, sc.origID = frags, origID
	r, err := heur.RouteWith(inner, heur.Instance{Mesh: m, Model: model, Comms: frags}, ws)
	if err != nil {
		return route.Routing{}, err
	}
	// Rewrite fragment IDs back to the originals in place (the flow list is
	// ours: workspace-pooled or freshly allocated by the inner heuristic).
	for i := range r.Flows {
		r.Flows[i].Comm.ID = origID[r.Flows[i].Comm.ID]
	}
	return route.Routing{Topo: m, Flows: r.Flows}, nil
}
