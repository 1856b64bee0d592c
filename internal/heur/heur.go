// Package heur implements the single-path (1-MP) routing heuristics of
// Section 5 — SG, IG, TB, XYI and PR — together with the XY baseline, the
// virtual BEST heuristic used in the Section 6 plots and the SA refiner.
//
// Each heuristic is a solve.Solver value (XY{}, PR{}, ...) held by the
// policy registry under its name; solve.Options carries its knobs (the
// processing order, SA's seed, move budget and stop poll) and the
// reusable workspace. A direct call such as XY{}.Route(in, o) validates
// the instance exactly like solve.Route("XY", in, o).
//
// All heuristics are deterministic: communications are processed by
// decreasing weight (the ordering the paper found best), ties broken by
// communication ID, and link scans use the dense LinkID order.
package heur

import (
	"repro/internal/comm"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// paperHeuristics are the six concrete heuristics in the paper's
// presentation order — BEST's candidates.
var paperHeuristics = []solve.Solver{XY{}, SG{}, IG{}, TB{}, XYI{}, PR{}}

func init() {
	for _, s := range paperHeuristics {
		solve.Register(s)
	}
	solve.Register(Best{})
	solve.Register(SA{})
}

// heurScratch is the pooled per-workspace scratch shared by the greedy
// heuristics: the sorted processing order, the frontier-id buffer, IG's
// least-load table, candidate-path double buffer, move-sequence buffers,
// the swap-effect id lists and the hot-link heap of the rescan
// heuristics. One instance lives in each workspace under the "heur" slot.
type heurScratch struct {
	ordered comm.Set
	// ids is the AppendFrontierIDs buffer of IG's ideal shares and PR's
	// step lists; minLoad is IG's per-core least out-link load table
	// (see minOutLoads).
	ids     []int
	minLoad []float64
	// heap is the indexed most-loaded-link heap of XYI and PR.
	heap route.LoadHeap
	// watch is XYI's index of retired links and their candidates;
	// moved/pre/changed are one applied move's links, their loads before
	// it, and the ones whose load it changed.
	watch   watchSet
	moved   []int
	pre     []float64
	changed []int
	// cand/best double-buffer candidate paths or spans (TB, XYI, SA): the
	// current candidate is built in cand and swapped into best when it
	// wins; full materializes XYI's winning full path.
	cand, best, full route.Path
	// oldIDs/newIDs are swapEffectOf's sorted id lists of the two paths;
	// touched/delta its merged ids with a non-zero delta and the deltas.
	oldIDs, newIDs []int
	touched        []int
	delta          []float64
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

// prepare is the shared preamble of every Route: it validates the
// instance for the mesh-only policy, binds the caller's workspace (a
// fresh one when o carries none) and sizes its path slots.
func prepare(policy string, in solve.Instance, o solve.Options) (solve.Instance, *route.Workspace, error) {
	in, err := in.OnMesh(policy)
	if err != nil {
		return in, nil, err
	}
	ws := o.Workspace
	if ws == nil {
		ws = route.NewWorkspace()
	}
	ws.Bind(in.Mesh)
	ws.Paths().ResetFor(in.Comms)
	return in, ws, nil
}

// singlePathRouting assembles a Routing from the workspace's per-comm path
// slots, preserving the original set order. The flow list aliases the
// workspace's pooled buffer.
func singlePathRouting(in solve.Instance, ws *route.Workspace) route.Routing {
	flows := ws.Flows(len(in.Comms))
	ps := ws.Paths()
	for _, c := range in.Comms {
		flows = append(flows, route.Flow{Comm: c, Path: ps.Get(c.ID)})
	}
	ws.SetFlows(flows)
	return route.Routing{Topo: in.Mesh, Flows: flows}
}
