// Solver-level benchmark harness: per-policy ns/op and allocs/op on the
// reference workload and the ≥10× workspace-reuse allocation guard of the
// dense-workspace refactor. TestEmitBenchJSON records the same policies
// for cmd/benchguard.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/topo"
	"repro/internal/workload"
)

// solverBenchNames is the policy line-up tracked by the solver benchmarks:
// the paper's six constructive heuristics, the SA refiner (whose cost the
// compiled-objective work tracks), plus the multi-path policies cheap
// enough to benchmark per-commit.
var solverBenchNames = []string{"XY", "SG", "IG", "TB", "XYI", "PR", "SA", "2MP", "4MP"}

// heuristicLineUp is the subset covered by the allocation-ratio guard.
var heuristicLineUp = []string{"XY", "SG", "IG", "TB", "XYI", "PR"}

// solverBenchInstance is the reference workload of the solver benchmarks:
// the congested Figure 7(a) midpoint (n=70, small communications).
func solverBenchInstance() solve.Instance {
	m := mesh.MustNew(8, 8)
	return solve.Instance{
		Mesh:  m,
		Model: power.KimHorowitz(),
		Comms: workload.New(m, 1).Uniform(70, 100, 1500),
	}
}

// optBenchInstance is the committed OPT benchmark instance: a 4x4 mesh
// with 7 communications, the gap-report scale where the exact search is
// routine. The heuristic reference workload (n=70 on 8x8) is
// exponentially out of reach for any exact solver, so OPT is tracked on
// its own instance; benchguard still normalizes by XY measured on the
// same machine, which is all the cross-machine comparison needs.
func optBenchInstance() solve.Instance {
	m := mesh.MustNew(4, 4)
	return solve.Instance{
		Mesh:  m,
		Model: power.KimHorowitz(),
		Comms: workload.New(m, 7).Uniform(7, 100, 900),
	}
}

// optBenchOptions pins the benchmarked OPT configuration: serial search
// (parallel ns/op would track the machine's core count, not the code) on
// a reused workspace.
func optBenchOptions(ws *route.Workspace) solve.Options {
	return solve.Options{Workspace: ws, ExactWorkers: 1}
}

// BenchmarkSolvers measures every tracked policy with a reused workspace —
// the configuration the experiment engine runs — one sub-benchmark per
// policy, allocations reported.
func BenchmarkSolvers(b *testing.B) {
	in := solverBenchInstance()
	for _, name := range solverBenchNames {
		s, err := solve.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			ws := route.NewWorkspace()
			opts := solve.Options{Workspace: ws}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Route(in, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	opt, err := solve.Lookup("OPT")
	if err != nil {
		b.Fatal(err)
	}
	optIn := optBenchInstance()
	b.Run("OPT", func(b *testing.B) {
		opts := optBenchOptions(route.NewWorkspace())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := opt.Route(optIn, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// maxOptAllocsPerSolve bounds OPT's per-solve allocations under a warmed
// workspace: the incumbent-seeded branch-and-bound runs entirely on
// pooled arenas, so a reused serial solve costs only validation, the
// seeding heuristic's plumbing, and the routing assembly.
const maxOptAllocsPerSolve = 24

// TestOptWorkspaceAllocs is the exact solver's allocation guard: a warmed
// exact.Workspace solve of the committed OPT bench instance must stay
// within maxOptAllocsPerSolve allocations.
func TestOptWorkspaceAllocs(t *testing.T) {
	s, err := solve.Lookup("OPT")
	if err != nil {
		t.Fatal(err)
	}
	in := optBenchInstance()
	opts := optBenchOptions(route.NewWorkspace())
	if _, err := s.Route(in, opts); err != nil { // warm the workspace
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Route(in, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxOptAllocsPerSolve {
		t.Fatalf("OPT allocates %.0f times per warmed-workspace solve, guard %d",
			allocs, maxOptAllocsPerSolve)
	}
}

// minWorkspaceAllocRatio is the acceptance bar of the dense-workspace
// refactor: across the heuristic line-up, workspace reuse must cut
// per-solve allocations by at least this factor versus allocate-fresh
// calls (warmed solves now allocate nothing, so the measured ratio is
// unbounded; 10× is the floor the refactor set).
const minWorkspaceAllocRatio = 10

// maxReusedAllocsPerSolve bounds the absolute per-solve allocation count
// under reuse: a warmed workspace solve allocates nothing (validation is
// allocation-free for increasing IDs); 1 leaves room for runtime noise.
const maxReusedAllocsPerSolve = 1

// BenchmarkSolverTrialAllocs is the workspace-reuse allocation guard: for
// each heuristic of the line-up it measures allocs per solve with a fresh
// workspace per call versus a reused one, reports both, and fails if the
// aggregate reduction falls under minWorkspaceAllocRatio or any policy
// allocates more than maxReusedAllocsPerSolve when warmed.
func BenchmarkSolverTrialAllocs(b *testing.B) {
	in := solverBenchInstance()
	b.ReportAllocs()
	totalFresh, totalReused := 0.0, 0.0
	for _, name := range heuristicLineUp {
		s, err := solve.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		fresh := testing.AllocsPerRun(3, func() {
			if _, err := s.Route(in, solve.Options{}); err != nil {
				b.Fatal(err)
			}
		})
		ws := route.NewWorkspace()
		opts := solve.Options{Workspace: ws}
		if _, err := s.Route(in, opts); err != nil { // warm the workspace
			b.Fatal(err)
		}
		reused := testing.AllocsPerRun(3, func() {
			if _, err := s.Route(in, opts); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(reused, "allocs/solve-"+name)
		if reused > maxReusedAllocsPerSolve {
			b.Fatalf("%s allocates %.0f times per warmed-workspace solve, guard %d",
				name, reused, maxReusedAllocsPerSolve)
		}
		totalFresh += fresh
		totalReused += reused
	}
	// An all-zero reused total is the best case, not a division by zero.
	ratio := math.Inf(1)
	if totalReused > 0 {
		ratio = totalFresh / totalReused
	}
	b.ReportMetric(ratio, "freshOverReused")
	if ratio < minWorkspaceAllocRatio {
		b.Fatalf("workspace reuse cuts allocations only %.1f× across the heuristic line-up, guard %d×",
			ratio, minWorkspaceAllocRatio)
	}
	for i := 0; i < b.N; i++ { // keep the harness happy; the guard above is the point
	}
}

// TestMixedPlatformWorkspaceAllocs is the per-platform workspace guard:
// one workspace alternating TABLE on a shared torus:8x8 value with a mesh
// heuristic keeps each platform's tracker and scratch, so a warmed pair
// allocates no more than its two solves apart, and a warmed TABLE solve
// allocates nothing.
func TestMixedPlatformWorkspaceAllocs(t *testing.T) {
	tor, err := topo.Parse("torus:8x8")
	if err != nil {
		t.Fatal(err)
	}
	onTorus := solve.Instance{Topo: tor, Model: power.KimHorowitz(),
		Comms: workload.New(tor.Carrier(), 1).Uniform(30, 100, 1500)}
	onMesh := solverBenchInstance()
	table, err := solve.Lookup("TABLE")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(ws *route.Workspace, solves ...func(*route.Workspace)) float64 {
		for _, f := range solves { // warm
			f(ws)
		}
		return testing.AllocsPerRun(5, func() {
			for _, f := range solves {
				f(ws)
			}
		})
	}
	solver := func(s solve.Solver, in solve.Instance) func(*route.Workspace) {
		return func(ws *route.Workspace) {
			if _, err := s.Route(in, solve.Options{Workspace: ws}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tableAlone := allocs(route.NewWorkspace(), solver(table, onTorus))
	if tableAlone != 0 {
		t.Errorf("warmed TABLE on %s allocates %.0f times, want 0", tor.Spec(), tableAlone)
	}
	for _, name := range []string{"XYI", "PR", "IG"} {
		s, err := solve.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		alone := allocs(route.NewWorkspace(), solver(s, onMesh))
		pair := allocs(route.NewWorkspace(), solver(table, onTorus), solver(s, onMesh))
		t.Logf("TABLE(%s) + %s: %.0f allocs, apart %.0f + %.0f", tor.Spec(), name, pair, tableAlone, alone)
		if pair > tableAlone+alone {
			t.Errorf("TABLE(%s) + %s on one workspace allocates %.0f times, apart %.0f + %.0f",
				tor.Spec(), name, pair, tableAlone, alone)
		}
	}
}

// nocEnergyBenchConfig is the committed NoCSimEnergy configuration: the
// E15 replay with explicit per-component energy coefficients, the run
// whose Stats.Energy breakdown the energy benchmarks track.
func nocEnergyBenchConfig() noc.Config {
	return noc.Config{Horizon: 1000, Warmup: 200, RouterPJPerBit: 0.5, BufferPJPerBit: 0.3}
}

// maxNoCSimEnergyAllocs bounds a warmed pooled run with per-component
// energy accounting. The engine's own budget is maxSimAllocsPerRun = 12
// (internal/noc/sim_bench_test.go, measured 8, the Energy slab
// included); the energy counters may add at most 2 allocations, so
// 12 + 2 is the ceiling.
const maxNoCSimEnergyAllocs = 14

// BenchmarkNoCSimEnergy measures the pooled simulator with energy
// accounting on the E15 reference routing and guards the accounting's
// allocation cost: a warmed run must stay within maxNoCSimEnergyAllocs,
// and the conservation identity must hold on every iteration.
func BenchmarkNoCSimEnergy(b *testing.B) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 8).Uniform(15, 100, 1200)
	res := solveEval(b, heur.PR{}, solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
	if !res.Feasible {
		b.Fatalf("energy bench setup: infeasible: %v", res.Err)
	}
	ws := noc.NewWorkspace()
	cfg := nocEnergyBenchConfig()
	run := func() *noc.Stats {
		sim, err := ws.Simulator(res.Routing, model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return sim.Run()
	}
	st := run() // warm the pooled buffers
	e := st.Energy
	if got := e.RouterTotalNJ + e.LinkTotalNJ + e.BufferTotalNJ; got != e.TotalNJ {
		b.Fatalf("energy conservation broken: %g != %g", got, e.TotalNJ)
	}
	if e.TotalNJ <= 0 {
		b.Fatal("zero total energy on the reference replay")
	}
	perRun := testing.AllocsPerRun(3, func() { run() })
	b.ReportMetric(perRun, "allocs/run")
	if perRun > maxNoCSimEnergyAllocs {
		b.Fatalf("%.0f allocations per warmed pooled energy run, guard %d — the counters are allocating on the hot path",
			perRun, maxNoCSimEnergyAllocs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
}
