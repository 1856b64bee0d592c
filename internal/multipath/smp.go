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

// Name returns e.g. "2MP(SG)".
func (e EqualSplit) Name() string {
	inner := e.Inner
	if inner == nil {
		inner = heur.SG{}
	}
	return fmt.Sprintf("%dMP(%s)", e.S, inner.Name())
}

// Route splits, routes the fragments with the inner heuristic, and
// reassembles a multi-path routing carrying the original communication
// IDs. The returned routing satisfies Validate(set, S).
func (e EqualSplit) Route(m *mesh.Mesh, model power.Model, set comm.Set) (route.Routing, error) {
	return e.RouteWith(m, model, set, nil)
}

// smpScratch pools the fragment set and the fragment→original ID table
// across workspace-reusing calls.
type smpScratch struct {
	frags  comm.Set
	origID []int
}

// RouteWith is Route threading a reusable dense workspace (nil allowed) to
// the fragment buffers and the inner heuristic; the returned routing then
// aliases workspace memory per the route.Workspace contract.
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
	return route.Routing{Mesh: m, Flows: r.Flows}, nil
}

// Solve routes and evaluates in one call.
func (e EqualSplit) Solve(m *mesh.Mesh, model power.Model, set comm.Set) (route.Result, error) {
	r, err := e.Route(m, model, set)
	if err != nil {
		return route.Result{}, err
	}
	return route.Evaluate(r, model), nil
}
