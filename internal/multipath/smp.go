package multipath

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/heur"
	"repro/internal/route"
	"repro/internal/solve"
)

// smpSolver is one equal-split s-MP policy ("2MP", "4MP"), the multi-path
// extension the paper's conclusion calls for: every communication is split
// into s equal fragments and the fragment stream is routed by the TB
// greedy, so different fragments of one communication may take different
// Manhattan paths and the per-link pressure drops by up to s.
// Options.MaxPaths overrides s; the other Options reach TB.
type smpSolver struct {
	name string
	s    int
}

// MaxSplit bounds the split count (Options.MaxPaths): every communication
// becomes that many fragments, so an unbounded count lets one request
// exhaust memory.
const MaxSplit = 64

// smpScratch pools the fragment set and the fragment→original ID table
// across workspace-reusing calls.
type smpScratch struct {
	frags  comm.Set
	origID []int
}

func init() {
	solve.Register(smpSolver{name: "2MP", s: 2})
	solve.Register(smpSolver{name: "4MP", s: 4})
}

// Name implements solve.Solver.
func (s smpSolver) Name() string { return s.name }

// Route implements solve.Solver: it splits, routes the fragments with TB
// and reassembles a multi-path routing carrying the original
// communication IDs, which satisfies Validate(set, split). The fragment
// buffers live in the workspace (a fresh one when o carries none), and
// the returned routing aliases workspace memory per the route.Workspace
// contract.
func (s smpSolver) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, err := in.OnMesh(s.name)
	if err != nil {
		return route.Routing{}, err
	}
	split := s.s
	if o.MaxPaths != 0 {
		split = o.MaxPaths
	}
	if split < 1 || split > MaxSplit {
		return route.Routing{}, fmt.Errorf("multipath: %s split count %d outside [1, %d]", s.name, split, MaxSplit)
	}
	ws := o.Workspace
	if ws == nil {
		ws = route.NewWorkspace()
	}
	ws.Bind(in.Mesh)
	sc := ws.Scratch("multipath.smp", func() any { return new(smpScratch) }).(*smpScratch)
	// Fragment with fresh dense IDs; remember the original ID per fragment.
	// AppendSplitEqual writes the fragments straight into the pooled
	// buffer — the per-comm intermediate slices a split-and-copy would build
	// were the bulk of this policy's per-call allocations.
	frags := sc.frags[:0]
	origID := sc.origID[:0]
	for _, c := range in.Comms {
		lo := len(frags)
		if frags, err = c.AppendSplitEqual(frags, split); err != nil {
			return route.Routing{}, err
		}
		for i := lo; i < len(frags); i++ {
			frags[i].ID = i
			origID = append(origID, c.ID)
		}
	}
	sc.frags, sc.origID = frags, origID
	o.Workspace = ws
	r, err := heur.TB{}.Route(solve.Instance{Mesh: in.Mesh, Model: in.Model, Comms: frags}, o)
	if err != nil {
		return route.Routing{}, err
	}
	// Rewrite fragment IDs back to the originals in place (the flow list
	// is the workspace's pooled buffer).
	for i := range r.Flows {
		r.Flows[i].Comm.ID = origID[r.Flows[i].Comm.ID]
	}
	return route.Routing{Topo: in.Mesh, Flows: r.Flows}, nil
}
