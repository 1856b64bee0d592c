// Package exact computes optimal single-path (1-MP) routings of small
// instances by branch-and-bound, plus the ideal-sharing lower bound used
// in the proofs of Theorems 1 and 2. The paper leaves "compute the optimal
// solution for small problem instances" as future work (Section 7); this
// package provides it as a baseline so the heuristics' absolute quality
// can be measured in tests, ablation benches, and the cmd/experiments
// -optgap report.
//
// The solver is an incumbent-seeded, incrementally-bounded, parallel
// branch-and-bound behind a pooled Workspace:
//
//   - The registered BEST heuristic (or a cheapest-increment greedy when
//     the registry is not linked) runs first, so pruning starts from a
//     real incumbent instead of +Inf.
//   - Two admissible lower bounds are maintained as running aggregates
//     updated on every path add/remove. The envelope bound is static power
//     of active links plus the lower convex envelope of the quantized
//     dynamic power (piecewise-linear through the frequency levels — far
//     tighter than the continuous relaxation, which never prunes because
//     quantization rounds frequency up), plus each unrouted
//     communication's cheapest envelope increment; the per-comm
//     cheapest-increment terms are cached and invalidated only for comms
//     whose candidate paths touch a changed link, via a link→comm
//     incidence index. The quantized-aggregate bound is the exact
//     quantized power of the links routed so far (admissible because
//     per-link loads only grow down the tree), which dominates deep in
//     congested trees where loads sit just past a frequency step.
//   - Per-comm candidate paths are pre-sorted by their envelope increment
//     against the seed routing's loads, so the first descent is
//     near-greedy.
//   - The top of the tree is split into subtree tasks on per-worker
//     deques with work stealing; workers share the best-power incumbent
//     through an atomic.
//
// Determinism: the returned routing is byte-identical at every worker
// count. Equal-power optima are tie-broken by the lexicographically
// smallest choice vector (candidate path enumeration indices in
// weight-descending comm order); subtrees are pruned only when their
// bound strictly exceeds the incumbent (plus a 1e-9 admissibility slack),
// so every optimum-tied leaf is explored regardless of incumbent timing,
// and leaf loads are restored bitwise on backtrack so a leaf's evaluated
// power is a pure function of its choice vector.
package exact

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// ErrStopped is returned by Solve when Options.Stop reported true before
// the search completed — cancellation, not infeasibility or truncation.
var ErrStopped = errors.New("exact: search stopped by Options.Stop")

// stopNodeStride is the node period of the Stop poll: the predicate runs
// once per this many explored nodes (on the count the budget charge
// already maintains), so an installed hook costs one modulo next to the
// existing atomic add and a deadline still binds within microseconds.
const stopNodeStride = 1024

// DefaultMaxStates bounds the number of branch-and-bound nodes explored
// before Solve gives up, protecting tests from exponential blow-ups.
const DefaultMaxStates = 5_000_000

// boundSlack absorbs the floating-point rounding of the incrementally
// maintained lower bound: a subtree is pruned only when its bound exceeds
// the incumbent by more than this, so rounding can never prune an
// optimum-tied solution and the lexicographic tie-break stays exact.
const boundSlack = 1e-9

// maxArenaLinks caps the total candidate-path storage (Σ paths·length
// over the set). Instances past it are rejected loudly instead of
// exhausting memory before the state budget can bite.
const maxArenaLinks = 8 << 20

// Options tunes one Workspace.Solve call. The zero value reproduces the
// documented defaults.
type Options struct {
	// Workers caps the parallel subtree workers (0 = GOMAXPROCS). The
	// returned routing and power are byte-identical at every worker
	// count; only Stats.States may differ.
	Workers int
	// MaxStates overrides the search-node budget (0 = DefaultMaxStates).
	// A search that completes on exactly the budget still returns its
	// optimum; the truncation error is reported only when a node was
	// actually denied exploration.
	MaxStates int
	// Route, when non-nil, is the pooled routing workspace handed to the
	// incumbent-seeding BEST heuristic (and only to it), letting registry
	// callers share one scratch across the seed and their own solves.
	Route *route.Workspace
	// Stop, when non-nil, is polled every stopNodeStride explored nodes;
	// once it reports true every worker unwinds and Solve returns
	// ErrStopped. An unstopped search explores exactly the nodes it would
	// without the hook.
	Stop func() bool
}

// Stats reports how a Solve call went.
type Stats struct {
	// States is the number of branch-and-bound nodes explored. It is
	// deterministic for Workers == 1; under parallel search the count
	// varies run to run with pruning timing (the result does not).
	States int64
	// Truncated reports that the state budget denied at least one node,
	// in which case Solve returned an error.
	Truncated bool
	// Seeded reports that an incumbent was installed before the search;
	// SeedPower is its exact power.
	Seeded    bool
	SeedPower float64
	// Workers and Tasks describe the parallel split actually used
	// (Tasks == 0 means the serial path).
	Workers int
	Tasks   int
}

// Solve returns an optimal 1-MP routing of the communication set, or
// feasible=false if no single-path routing satisfies the bandwidth
// constraint. An error is returned only for malformed instances or when
// the search exceeds DefaultMaxStates. It is the one-shot form of
// Workspace.Solve; callers running many solves should pool a Workspace.
func Solve(m *mesh.Mesh, model power.Model, set comm.Set) (route.Routing, bool, error) {
	r, ok, _, err := NewWorkspace().Solve(m, model, set, Options{})
	return r, ok, err
}

// Solve runs the branch-and-bound on a pooled workspace. The returned
// routing aliases workspace memory and is valid until the next call on
// the same workspace (route.Routing.Clone to keep it); results are
// bit-for-bit identical with or without reuse, and at every Workers
// count. A Workspace must not be shared between goroutines (the solver
// parallelizes internally).
func (w *Workspace) Solve(m *mesh.Mesh, model power.Model, set comm.Set, opt Options) (route.Routing, bool, Stats, error) {
	var st Stats
	if err := set.Validate(m); err != nil {
		return route.Routing{}, false, st, err
	}
	maxStates := opt.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := w.prepare(m, model, set); err != nil {
		return route.Routing{}, false, st, err
	}
	w.maxStates = int64(maxStates)
	w.nodeCount.Store(0)
	w.truncated.Store(false)
	w.stop = opt.Stop
	w.stopped.Store(false)
	w.best.reset()

	n := len(w.order)
	if n == 0 {
		st.Workers = 1
		if cap(w.flows) == 0 {
			w.flows = make([]route.Flow, 0, 1)
		}
		return route.Routing{Topo: m, Flows: w.flows[:0]}, true, st, nil
	}

	s0 := w.state(0)
	rws := opt.Route
	if rws == nil {
		if w.rws == nil {
			w.rws = route.NewWorkspace()
		}
		rws = w.rws
	}
	st.Seeded, st.SeedPower = w.seedIncumbent(s0, rws)

	// Split the top of the tree into enough subtree tasks to keep every
	// worker busy through stealing. With one worker (or a tree too
	// shallow to split) the plain serial DFS avoids the task overhead;
	// the result is identical either way.
	splitDepth, est := 0, 1
	for splitDepth < n-1 && est < workers*4 {
		est *= int(w.npaths[splitDepth])
		splitDepth++
	}
	if workers == 1 || splitDepth == 0 {
		st.Workers = 1
		s0.dfs(0)
	} else {
		st.Workers = workers
		w.taskD = splitDepth
		w.taskBuf = w.taskBuf[:0]
		w.genTasks(s0, 0)
		nt := len(w.taskBuf) / splitDepth
		st.Tasks = nt
		if nt > 0 {
			w.runParallel(workers, nt)
		}
	}

	st.States = w.nodeCount.Load()
	if w.stopped.Load() {
		// Cancellation outranks truncation: a stopped search proved
		// nothing, so neither the incumbent nor the budget verdict may
		// leak out as a result.
		return route.Routing{}, false, st, ErrStopped
	}
	st.Truncated = w.truncated.Load()
	if st.Truncated {
		return route.Routing{}, false, st, fmt.Errorf("exact: search exceeded %d states", maxStates)
	}
	if !w.best.found {
		return route.Routing{}, false, st, nil
	}
	return w.assemble(), true, st, nil
}
