package noc

// Engine benchmarks: the arena engine (pooled via Workspace, the
// configuration multi-trial callers run) against the historical
// pointer/container-heap reference, plus the steady-state allocation
// guard. The reference engine only exists in this test package, so the
// old-vs-new ratio is measured here; the repository-level BenchmarkNoCSim
// (bench_test.go) times the production engine, and the root
// TestEmitBenchJSON records its ns/op for cmd/benchguard.

import (
	"testing"

	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

// benchRouting is the E15 reference instance: a PR routing of 15 random
// communications on the paper's 8×8 mesh.
func benchRouting(b *testing.B) (route.Routing, power.Model) {
	b.Helper()
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 8).Uniform(15, 100, 1200)
	r, err := heur.PR{}.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if res := route.Evaluate(r, model); !res.Feasible {
		b.Fatalf("setup: infeasible: %v", res.Err)
	}
	return r, model
}

func benchConfig(sw Switching) Config {
	return Config{Horizon: 1000, Warmup: 200, Switching: sw}
}

// BenchmarkEngineVsReference runs the same instance through both engines,
// both switching modes. The arena/reference ns/op ratio is the rebuild's
// speedup; the differential tests hold the two byte-identical.
func BenchmarkEngineVsReference(b *testing.B) {
	r, model := benchRouting(b)
	for _, sw := range []Switching{StoreAndForward, CutThrough} {
		b.Run("reference/"+sw.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ref, err := refNew(r, model, benchConfig(sw))
				if err != nil {
					b.Fatal(err)
				}
				ref.run()
			}
		})
		b.Run("arena/"+sw.String(), func(b *testing.B) {
			ws := NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim, err := ws.Simulator(r, model, benchConfig(sw))
				if err != nil {
					b.Fatal(err)
				}
				sim.Run()
			}
		})
	}
}

// maxSimAllocsPerRun bounds a warmed pooled run's allocations: the Stats
// output (struct, presized per-comm map, two per-link slices, energy
// slab) is the only fresh memory — the engine itself (event calendar,
// packets, queues) reuses workspace buffers. Measured 8; 12 leaves
// headroom for runtime drift without letting an engine-side allocation
// regression through.
const maxSimAllocsPerRun = 12

// BenchmarkNoCSimAllocs is the steady-state allocation guard of the
// pooled engine, both switching modes.
func BenchmarkNoCSimAllocs(b *testing.B) {
	r, model := benchRouting(b)
	for _, sw := range []Switching{StoreAndForward, CutThrough} {
		ws := NewWorkspace()
		run := func() {
			sim, err := ws.Simulator(r, model, benchConfig(sw))
			if err != nil {
				b.Fatal(err)
			}
			sim.Run()
		}
		run() // warm the pooled buffers
		perRun := testing.AllocsPerRun(3, run)
		b.ReportMetric(perRun, "allocs/run-"+sw.String())
		if perRun > maxSimAllocsPerRun {
			b.Fatalf("%v: %.0f allocations per warmed pooled run, guard %d — the engine is allocating on the hot path",
				sw, perRun, maxSimAllocsPerRun)
		}
	}
	for i := 0; i < b.N; i++ { // keep the harness happy; the guard above is the point
	}
}
