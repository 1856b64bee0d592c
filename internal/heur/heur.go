// Package heur implements the single-path (1-MP) routing heuristics of
// Section 5 — SG, IG, TB, XYI and PR — together with the XY baseline and
// the virtual BEST heuristic used in the Section 6 plots.
//
// All heuristics are deterministic: communications are processed by
// decreasing weight (the ordering the paper found best), ties broken by
// communication ID, and link scans use the dense LinkID order.
package heur

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// Instance is one routing problem: a mesh, a power model, and the
// communication set to route. It is the registry's solve.Instance — the
// heuristics predate the unified policy layer and keep their historical
// name for it.
type Instance = solve.Instance

// Heuristic computes a single-path routing for an instance. Route always
// returns a structurally valid routing when err is nil; the routing may
// still be infeasible (some link over bandwidth), which is the paper's
// notion of the heuristic failing on the instance — Solve exposes it via
// route.Result.Feasible.
type Heuristic interface {
	Name() string
	Route(in Instance) (route.Routing, error)
}

// WorkspaceRouter is implemented by heuristics that can route against a
// reusable dense workspace (all of this package's heuristics do). RouteInto
// produces bit-for-bit the same routing as Route, but reuses the
// workspace's per-comm path slots, load tracker and scratch buffers; the
// returned routing aliases workspace memory per the route.Workspace
// pooling contract.
type WorkspaceRouter interface {
	Heuristic
	RouteInto(in Instance, ws *route.Workspace) (route.Routing, error)
}

// RouteWith routes with h, reusing ws when h supports it (ws may be nil).
func RouteWith(h Heuristic, in Instance, ws *route.Workspace) (route.Routing, error) {
	if ws != nil {
		if wr, ok := h.(WorkspaceRouter); ok {
			return wr.RouteInto(in, ws)
		}
	}
	return h.Route(in)
}

// Solve routes the instance with h and evaluates loads, feasibility and
// power under the instance's model.
func Solve(h Heuristic, in Instance) (route.Result, error) {
	if err := in.Validate(); err != nil {
		return route.Result{}, err
	}
	r, err := h.Route(in)
	if err != nil {
		return route.Result{}, err
	}
	return route.Evaluate(r, in.Model), nil
}

// All returns the six concrete heuristics in the paper's presentation
// order: XY, SG, IG, TB, XYI, PR.
func All() []Heuristic {
	return []Heuristic{XY{}, SG{}, IG{}, TB{}, XYI{}, PR{}}
}

// ByName returns the heuristic with the given name (case-sensitive,
// matching the paper's abbreviations) or an error; "BEST" returns Best
// over All().
func ByName(name string) (Heuristic, error) {
	if name == "BEST" {
		return Best{Heuristics: All()}, nil
	}
	for _, h := range All() {
		if h.Name() == name {
			return h, nil
		}
	}
	return nil, fmt.Errorf("heur: unknown heuristic %q", name)
}

// heurScratch is the pooled per-workspace scratch shared by the greedy
// heuristics: the sorted processing order, frontier buffers, candidate-path
// double buffer, move-sequence buffers, the dense swap-effect accumulator
// and the hot-link heap of the rescan heuristics. One instance lives in
// each workspace under the "heur" slot.
type heurScratch struct {
	ordered comm.Set
	// frontier is the AppendFrontierLinks buffer of IG and PR.
	frontier []mesh.Link
	// heap is the indexed most-loaded-link heap of XYI and PR.
	heap route.LoadHeap
	// cand/best double-buffer candidate paths or spans (TB, XYI, SA): the
	// current candidate is built in cand and swapped into best when it
	// wins; full materializes XYI's winning full path.
	cand, best, full route.Path
	// delta/touched are the link-id-indexed accumulator of swapEffectOf
	// (delta is always restored to zero before returning, touched lists
	// the ids written).
	delta   []float64
	touched []int
	// needEval flags the communications the SA hill-climb must still
	// examine (the dirty set).
	needEval []bool
	// tbArena/tbPaths hold every two-bend candidate path of every
	// communication, enumerated once per SA solve (tbPaths[pos][k] views
	// into the flat arena).
	tbArena route.Path
	tbPaths [][]route.Path
	// bestPaths is SA's best-routing-so-far snapshot.
	bestPaths route.PathSet
	// winners are BEST's current-leader snapshots, one per nesting depth:
	// a candidate may itself run a nested BEST on the same workspace
	// (SA's seed does), which must not clobber the outer leader.
	winners     []*route.PathSet
	winnerDepth int
}

// acquireWinner hands out the leader snapshot slot of the current BEST
// nesting depth and descends; the returned release must be called (it is
// deferred) to ascend again.
func (sc *heurScratch) acquireWinner() (winner *route.PathSet, release func()) {
	if sc.winnerDepth == len(sc.winners) {
		sc.winners = append(sc.winners, new(route.PathSet))
	}
	winner = sc.winners[sc.winnerDepth]
	sc.winnerDepth++
	return winner, func() { sc.winnerDepth-- }
}

// scratchOf returns the workspace's pooled heuristic scratch.
func scratchOf(ws *route.Workspace) *heurScratch {
	return ws.Scratch("heur", func() any { return new(heurScratch) }).(*heurScratch)
}

// evalSlot caches the compiled power evaluator of the workspace's current
// model under the "power.eval" scratch key.
type evalSlot struct{ ev *power.Evaluator }

// evaluatorFor returns the workspace's compiled evaluator for the model,
// recompiling only when the model changed since the last solve — repeated
// trials on one platform (the experiment engine's shape) compile once.
func evaluatorFor(ws *route.Workspace, m power.Model) *power.Evaluator {
	s := ws.Scratch("power.eval", func() any { return new(evalSlot) }).(*evalSlot)
	if s.ev == nil || !s.ev.CompiledFrom(m) {
		s.ev = power.Compile(m)
	}
	return s.ev
}

// orderedInto sorts the set into the scratch's reusable order buffer.
func (sc *heurScratch) orderedInto(set comm.Set, o comm.Order) comm.Set {
	sc.ordered = set.SortedInto(sc.ordered, o)
	return sc.ordered
}

// prepare binds the workspace and sizes its path slots for the instance —
// the common preamble of every RouteInto.
func prepare(in Instance, ws *route.Workspace) *route.PathSet {
	ws.Bind(in.Mesh)
	ps := ws.Paths()
	ps.ResetFor(in.Comms)
	return ps
}

// singlePathRouting assembles a Routing from the workspace's per-comm path
// slots, preserving the original set order. The flow list aliases the
// workspace's pooled buffer.
func singlePathRouting(in Instance, ws *route.Workspace) route.Routing {
	flows := ws.Flows(len(in.Comms))
	ps := ws.Paths()
	for _, c := range in.Comms {
		flows = append(flows, route.Flow{Comm: c, Path: ps.Get(c.ID)})
	}
	ws.SetFlows(flows)
	return route.Routing{Mesh: in.Mesh, Flows: flows}
}
