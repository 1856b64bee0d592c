package noc

// Differential pinning of the arena engine against the historical
// pointer/container-heap engine (refsim_test.go, with the same horizon
// accounting fixes applied): identical Stats — every float bit for bit —
// and identical delivery sequences, across seeded random instances, both
// switching modes, finite and infinite buffers, with and without a
// virtual-channel assignment. (time, seq) totally orders events, so the
// two heap implementations must pop identically; any divergence is an
// engine bug, not tie-break noise.

import (
	"reflect"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/workload"
)

// diffConfigs is the configuration matrix every instance runs under.
func diffConfigs() []Config {
	return []Config{
		{Horizon: 300, Warmup: 50},
		{Horizon: 300, Warmup: 50, Switching: CutThrough},
		{Horizon: 300, Warmup: 50, BufferPackets: 2},
		{Horizon: 300, Warmup: 50, Switching: CutThrough, BufferPackets: 2},
	}
}

// runBoth executes the same instance on both engines and compares Stats
// and delivery order. classes may be nil. Returns false when the routing
// has no operating point (then both engines must agree on that too).
func runBoth(t *testing.T, r route.Routing, model power.Model, cfg Config, classes [][]int, label string) bool {
	t.Helper()

	ref, refErr := refNew(r, model, cfg)
	sim, err := New(r, model, cfg)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("%s: feasibility disagrees: ref err %v, new err %v", label, refErr, err)
	}
	if err != nil {
		return false
	}
	if classes != nil {
		ref.assignClasses(classes)
		if err := sim.AssignClasses(classes); err != nil {
			t.Fatalf("%s: AssignClasses: %v", label, err)
		}
	}

	var refDel, newDel []Delivery
	ref.onDeliver = func(d Delivery) { refDel = append(refDel, d) }
	sim.Observe(func(d Delivery) { newDel = append(newDel, d) })

	refStats := ref.run()
	newStats := sim.Run()

	if !reflect.DeepEqual(refStats, newStats) {
		t.Errorf("%s: Stats diverge\nref: %+v\nnew: %+v", label, refStats, newStats)
	}
	if !reflect.DeepEqual(refDel, newDel) {
		n := len(refDel)
		if len(newDel) < n {
			n = len(newDel)
		}
		at := -1
		for i := 0; i < n; i++ {
			if refDel[i] != newDel[i] {
				at = i
				break
			}
		}
		t.Errorf("%s: delivery sequences diverge (ref %d, new %d events, first mismatch at %d)",
			label, len(refDel), len(newDel), at)
	}
	return true
}

// xyRoutingOf routes every communication of a seeded uniform workload
// along XY — deterministic paths with plenty of link sharing.
func xyRoutingOf(m *mesh.Mesh, seed int64, n int, wmin, wmax float64) route.Routing {
	set := workload.New(m, seed).Uniform(n, wmin, wmax)
	flows := make([]route.Flow, 0, len(set))
	for _, c := range set {
		flows = append(flows, route.Flow{Comm: c, Path: route.XY(c.Src, c.Dst)})
	}
	return route.Routing{Topo: m, Flows: flows}
}

// TestDifferentialSeededInstances pins the engines equal across ≥40
// seeded instances × both switching modes × finite and infinite buffers.
func TestDifferentialSeededInstances(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	feasible := 0
	for seed := int64(0); seed < 50; seed++ {
		r := xyRoutingOf(m, seed, 12, 100, 700)
		ran := false
		for _, cfg := range diffConfigs() {
			if runBoth(t, r, model, cfg, nil, labelOf(seed, cfg)) {
				ran = true
			}
		}
		if ran {
			feasible++
		}
	}
	if feasible < 40 {
		t.Fatalf("only %d/50 seeded instances were feasible; the differential matrix is undersized", feasible)
	}
}

func labelOf(seed int64, cfg Config) string {
	l := string(rune('0'+seed/10)) + string(rune('0'+seed%10)) + "/" + cfg.Switching.String()
	if cfg.BufferPackets > 0 {
		l += "/finite"
	}
	return l
}

// TestDifferentialBackpressureAndVCs covers the hard paths the random
// instances miss: a cyclic-buffer ring under near-saturation (waiter
// wake chains, deadlock freeze) and the minimal-cycle routing with the
// escape-channel class assignment installed.
func TestDifferentialBackpressureAndVCs(t *testing.T) {
	ring, model := ringRouting(1150)
	for _, cfg := range []Config{
		{Horizon: 2000, BufferPackets: 1},
		{Horizon: 2000, BufferPackets: 1, Switching: CutThrough},
		{Horizon: 1500, Warmup: 100, BufferPackets: 64},
	} {
		runBoth(t, ring, model, cfg, nil, "ring")
	}

	cyc, model := minimalCycleRouting(1200)
	assign := deadlock.EscapeChannels(cyc)
	if err := assign.Validate(cyc); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Horizon: 2000, Warmup: 200, BufferPackets: 1},
		{Horizon: 2000, Warmup: 200, BufferPackets: 1, Switching: CutThrough},
	} {
		runBoth(t, cyc, model, cfg, nil, "cycle/plain")
		runBoth(t, cyc, model, cfg, assign.Classes, "cycle/vcs")
	}
}

// TestDifferentialPooledReuse runs the whole seeded matrix again through
// one pooled Workspace simulator: reuse across routings and
// configurations must stay byte-identical to the reference, trial after
// trial.
func TestDifferentialPooledReuse(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	ws := NewWorkspace()
	for seed := int64(0); seed < 20; seed++ {
		r := xyRoutingOf(m, seed, 12, 100, 700)
		for _, cfg := range diffConfigs() {
			ref, refErr := refNew(r, model, cfg)
			sim, err := ws.Simulator(r, model, cfg)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("seed %d: feasibility disagrees: ref %v, pooled %v", seed, refErr, err)
			}
			if err != nil {
				continue
			}
			refStats := ref.run()
			newStats := sim.Run()
			if !reflect.DeepEqual(refStats, newStats) {
				t.Errorf("seed %d %v: pooled Stats diverge from reference", seed, cfg.Switching)
			}
		}
	}
}
