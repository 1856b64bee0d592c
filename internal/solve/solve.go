// Package solve is the library's entry point and its uniform policy
// layer: every routing policy family — the Section 5 single-path
// heuristics, the exact branch-and-bound OPT, the equal-split multi-path
// rules, the Frank–Wolfe max-MP optimum, the simulated-annealing refiner
// and the topology-generic TABLE — implements one interface, Solver, and
// self-registers into a case-insensitive registry. Callers (the
// experiment engine, the service, the commands, the examples) describe a
// problem as an Instance, route it by policy name with Route (or call a
// Solver value such as heur.PR{} directly, with the same validation) and
// pass every knob through a single Options struct.
//
// The registry is populated by init functions in the policy packages
// (internal/heur, internal/exact, internal/multipath, internal/optflow,
// internal/tabroute). internal/experiments imports them all, so
// importing it makes every policy available.
package solve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/topo"
)

// ErrStopped is returned by a solver that abandoned its search because
// Options.Stop reported true — the deadline/cancellation path, not a
// solver failure. Callers distinguish it from "no solution" with
// errors.Is and map it back to their own cancellation signal (the
// experiment engine returns context.Canceled for it).
var ErrStopped = errors.New("solve: stopped by Options.Stop")

// Instance is one routing problem: a CMP platform, a link power model,
// and the communication set to route. The platform is one value with two
// spellings: Mesh, the paper's mesh, and Topo, any topology (a mesh
// included). Set either; Topology reads the platform whichever spelling
// holds it, and an instance routes the same under both.
type Instance struct {
	Mesh  *mesh.Mesh
	Topo  topo.Topology
	Model power.Model
	Comms comm.Set
}

// Topology returns the instance's platform: Topo when set, else Mesh.
func (in Instance) Topology() topo.Topology {
	if in.Topo != nil {
		return in.Topo
	}
	if in.Mesh != nil {
		return in.Mesh
	}
	return nil
}

// Validate checks the instance for well-formedness.
func (in Instance) Validate() error {
	tp := in.Topology()
	if tp == nil {
		return fmt.Errorf("solve: nil mesh and nil topology")
	}
	if in.Mesh != nil && in.Topo != nil && tp != topo.Topology(in.Mesh) {
		return fmt.Errorf("solve: both Mesh and Topo set on instance")
	}
	if err := in.Model.Validate(); err != nil {
		return err
	}
	return in.Comms.ValidateOn(tp)
}

// OnMesh validates the instance for a policy that routes meshes only and
// returns it with its platform in the Mesh spelling, which those policies
// read. Any other platform is an error naming it.
func (in Instance) OnMesh(policy string) (Instance, error) {
	if err := in.Validate(); err != nil {
		return in, err
	}
	m, ok := in.Topology().(*mesh.Mesh)
	if !ok {
		return in, fmt.Errorf("solve: policy %s routes meshes only, not %s", policy, in.Topo.Spec())
	}
	in.Mesh, in.Topo = m, nil
	return in, nil
}

// Options carries every tunable a policy may consume. The zero value is
// always valid and reproduces each policy's documented defaults, so
// callers that don't care pass Options{}. Policies ignore fields that
// don't concern them.
type Options struct {
	// Seed drives the RNG of stochastic policies (SA); 0 means the
	// policy's default seed, keeping zero-value determinism.
	Seed int64
	// SAIters bounds the simulated-annealing move budget
	// (0 = 300 moves per communication).
	SAIters int
	// FWMaxIters bounds the Frank–Wolfe iterations of MAXMP (0 = 300).
	FWMaxIters int
	// FWTolerance is MAXMP's relative duality-gap target (0 = 1e-6).
	FWTolerance float64
	// MaxPaths overrides the split count of the equal-split multi-path
	// policies (0 keeps the policy's own s, e.g. 2 for "2MP"); a count
	// outside [1, multipath.MaxSplit] is the policy's error.
	MaxPaths int
	// Order overrides the communication processing order of the
	// order-sensitive greedy heuristics SG, IG and TB, wherever they run:
	// alone, as BEST's candidates, in SA's seed or under 2MP/4MP (zero
	// value is the paper's weight-descending).
	Order comm.Order
	// ExactWorkers caps the parallel workers of the OPT branch-and-bound
	// (0 = GOMAXPROCS). OPT's routing is byte-identical at every worker
	// count; callers that already parallelize across solves set 1 to
	// avoid oversubscription.
	ExactWorkers int
	// ExactMaxStates overrides OPT's search-node budget
	// (0 = exact.DefaultMaxStates).
	ExactMaxStates int
	// Stop, when non-nil, is polled by the long-running policies (SA's
	// anneal loop, OPT's branch-and-bound) every few hundred steps; once
	// it reports true the solver abandons the search and returns
	// ErrStopped. The poll is a single predicate call on a coarse stride,
	// so an always-false Stop costs nothing measurable and the routing of
	// an unstopped run is byte-identical to a run without the hook. The
	// constructive heuristics finish in microseconds and ignore it.
	Stop func() bool
	// Workspace, when non-nil, lets the policy reuse dense scratch state
	// (per-comm path slots, load trackers, frontier bitsets) across calls
	// — the amortization hook of the experiment engine's per-worker
	// scratch and of any caller running many solves on one goroutine.
	// Routings returned under a workspace may alias its memory and are
	// valid until the next call that reuses it (deep-copy with
	// route.Routing.Clone to keep them); results are bit-for-bit
	// identical with or without a workspace. A Workspace must not be
	// shared between goroutines.
	Workspace *route.Workspace
}

// Solver computes a routing for an instance. Route returns a structurally
// valid routing when err is nil; the routing may still be infeasible (some
// link over bandwidth), which route.Evaluate exposes via Result.Feasible.
type Solver interface {
	// Name is the canonical policy name ("PR", "2MP", ...).
	Name() string
	Route(in Instance, opts Options) (route.Routing, error)
}

var (
	mu       sync.RWMutex
	registry = make(map[string]Solver)
)

// Register adds a solver to the registry under its canonical name.
// Registration is case-insensitive and panics on duplicates — two policy
// families claiming the same name is a programming error that must fail
// loudly at init time, not at first lookup.
func Register(s Solver) {
	key := strings.ToUpper(s.Name())
	mu.Lock()
	defer mu.Unlock()
	if prev, ok := registry[key]; ok {
		panic(fmt.Sprintf("solve: duplicate registration of policy %q (%T and %T)", s.Name(), prev, s))
	}
	registry[key] = s
}

// Lookup resolves a policy name case-insensitively.
func Lookup(name string) (Solver, error) {
	mu.RLock()
	s, ok := registry[strings.ToUpper(name)]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solve: unknown policy %q (have %s)", name, strings.Join(Policies(), ", "))
	}
	return s, nil
}

// Policies returns every registered canonical policy name, sorted.
func Policies() []string {
	mu.RLock()
	names := make([]string, 0, len(registry))
	for _, s := range registry {
		names = append(names, s.Name())
	}
	mu.RUnlock()
	sort.Strings(names)
	return names
}

// Route is the one-shot convenience: look the policy up and route.
func Route(policy string, in Instance, opts Options) (route.Routing, error) {
	s, err := Lookup(policy)
	if err != nil {
		return route.Routing{}, err
	}
	return s.Route(in, opts)
}

// TopologyAware marks a Solver that accepts instances on any topology.
// Solvers without the marker are Manhattan/mesh policies: they may only
// be given mesh instances, and return an error on any other. The marker is a
// static capability declaration, so callers can reject a policy/
// topology mismatch before drawing workloads or caching sweep keys.
type TopologyAware interface {
	Solver
	// RoutesTopologies reports (statically) that Route understands
	// non-mesh platforms.
	RoutesTopologies() bool
}

// Supports reports whether the solver can route instances on tp: every
// solver supports the mesh, non-mesh topologies require the
// TopologyAware marker.
func Supports(s Solver, tp topo.Topology) bool {
	if _, ok := tp.(*mesh.Mesh); ok {
		return true
	}
	ta, ok := s.(TopologyAware)
	return ok && ta.RoutesTopologies()
}

// CheckTopology resolves each policy name and verifies it supports tp,
// returning a descriptive error naming the topology-capable policies on
// the first mismatch — the shared pre-validation of the experiment
// engine and the serve endpoints.
func CheckTopology(policies []string, tp topo.Topology) error {
	var capable []string
	for _, name := range policies {
		s, err := Lookup(name)
		if err != nil {
			return err
		}
		if Supports(s, tp) {
			continue
		}
		if capable == nil {
			for _, n := range Policies() {
				if c, err := Lookup(n); err == nil && Supports(c, tp) {
					capable = append(capable, n)
				}
			}
		}
		return fmt.Errorf("solve: policy %q routes meshes only, not %s (topology-capable policies: %s)",
			s.Name(), tp.Spec(), strings.Join(capable, ", "))
	}
	return nil
}

// Func adapts a plain function to the Solver interface, for policies that
// need no state of their own.
type Func struct {
	PolicyName string
	RouteFunc  func(in Instance, opts Options) (route.Routing, error)
}

// Name implements Solver.
func (f Func) Name() string { return f.PolicyName }

// Route implements Solver.
func (f Func) Route(in Instance, opts Options) (route.Routing, error) {
	return f.RouteFunc(in, opts)
}
