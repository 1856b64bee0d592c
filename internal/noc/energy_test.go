package noc

// Per-component energy accounting tests: the conservation identity
// (total = Σ router + Σ link + Σ buffer) on every run, a hand-computed
// single-packet scenario, and the topology-generic replay path (torus
// and circulant routings through the same engine).

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/tabroute"
	"repro/internal/topo"
	"repro/internal/topo/circulant"
	"repro/internal/topo/torus"
	"repro/internal/workload"
)

// checkConservation asserts the Energy identity: each component total is
// the exact sum of its per-component slice, and TotalNJ is the sum of
// the three totals.
func checkConservation(t *testing.T, st *Stats, label string) {
	t.Helper()
	e := st.Energy
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if got := sum(e.RouterNJ); got != e.RouterTotalNJ {
		t.Errorf("%s: router total %g != Σ RouterNJ %g", label, e.RouterTotalNJ, got)
	}
	if got := sum(e.LinkNJ); got != e.LinkTotalNJ {
		t.Errorf("%s: link total %g != Σ LinkNJ %g", label, e.LinkTotalNJ, got)
	}
	if got := sum(e.BufferNJ); got != e.BufferTotalNJ {
		t.Errorf("%s: buffer total %g != Σ BufferNJ %g", label, e.BufferTotalNJ, got)
	}
	if got := e.RouterTotalNJ + e.LinkTotalNJ + e.BufferTotalNJ; got != e.TotalNJ {
		t.Errorf("%s: TotalNJ %g != router+link+buffer %g", label, e.TotalNJ, got)
	}
}

// TestEnergySinglePacket pins the accounting against a hand computation:
// one flow whose period exceeds the horizon injects exactly one packet,
// which crosses an L-hop path — L router traversals, L−1 buffer writes,
// and per-link energy derivable from the reported busy times.
func TestEnergySinglePacket(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitz()
	c := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 3, V: 4}, Rate: 2}
	r := route.Routing{Topo: m, Flows: []route.Flow{{Comm: c, Path: route.XY(c.Src, c.Dst)}}}
	L := float64(len(r.Flows[0].Path))

	cfg := Config{Horizon: 400} // period = 2048/2 = 1024 µs > horizon
	sim, err := New(r, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if st.Injected != 1 || st.Delivered != 1 {
		t.Fatalf("expected exactly one delivered packet, got injected=%d delivered=%d", st.Injected, st.Delivered)
	}
	checkConservation(t, st, "single-packet")

	e := st.Energy
	bits := 2048.0
	if want := L * 0.5 * bits * 1e-3; math.Abs(e.RouterTotalNJ-want) > 1e-9 {
		t.Errorf("router total %g nJ, want %g (L=%v traversals at the default 0.5 pJ/bit)", e.RouterTotalNJ, want, L)
	}
	if want := (L - 1) * 0.3 * bits * 1e-3; math.Abs(e.BufferTotalNJ-want) > 1e-9 {
		t.Errorf("buffer total %g nJ, want %g (L-1 transit buffers at the default 0.3 pJ/bit)", e.BufferTotalNJ, want)
	}
	wantLink := 0.0
	for id, f := range st.LinkFreq {
		if f == 0 {
			continue
		}
		wantLink += model.Pleak*st.Horizon + model.Dynamic(f)*st.LinkUtilization[id]*st.Horizon
	}
	if math.Abs(e.LinkTotalNJ-wantLink) > 1e-6 {
		t.Errorf("link total %g nJ, want %g (leakage over horizon + dynamic over busy time)", e.LinkTotalNJ, wantLink)
	}
	// The source router drives the first link; its core must carry
	// router energy, and cores off the path none.
	if e.RouterNJ[m.CoordIndex(c.Src)] == 0 {
		t.Errorf("source router charged no energy")
	}
	if e.RouterNJ[m.CoordIndex(mesh.Coord{U: 4, V: 1})] != 0 {
		t.Errorf("off-path router charged energy")
	}
	// The activity-based link energy can never exceed the static
	// full-power estimate the paper optimizes.
	if e.LinkTotalNJ > st.EnergyNJ {
		t.Errorf("activity link energy %g exceeds static estimate %g", e.LinkTotalNJ, st.EnergyNJ)
	}
}

// TestEnergyConservationSeeded asserts the identity over seeded PR
// routings under every switching/buffer configuration, through a pooled
// workspace.
func TestEnergyConservationSeeded(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	ws := NewWorkspace()
	ran := 0
	for seed := int64(0); seed < 10; seed++ {
		set := workload.New(m, seed).Uniform(12, 100, 900)
		r, err := heur.PR{}.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := route.Evaluate(r, model)
		if !res.Feasible {
			continue
		}
		for _, cfg := range diffConfigs() {
			sim, err := ws.Simulator(res.Routing, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := sim.Run()
			checkConservation(t, st, labelOf(seed, cfg))
			if st.Energy.TotalNJ <= 0 {
				t.Errorf("seed %d: zero total energy on a delivering run", seed)
			}
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no feasible seeded instance; the matrix is empty")
	}
}

// TestEnergyTopologyReplay runs TABLE routings on a torus and a
// circulant through the simulator: the engine must replay non-mesh
// routings (link ids, coordinates, energy) without touching mesh code.
func TestEnergyTopologyReplay(t *testing.T) {
	tor, err := torus.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := circulant.New(16, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	model := power.KimHorowitz()
	for _, tp := range []topo.Topology{tor, circ} {
		set := workload.New(tp.Carrier(), 3).Uniform(6, 100, 600)
		in := solve.Instance{Topo: tp, Model: model, Comms: set}
		r, err := tabroute.Solver{}.Route(in, solve.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tp.Spec(), err)
		}
		sim, err := New(r, model, Config{Horizon: 300, Warmup: 50})
		if err != nil {
			t.Fatalf("%s: %v", tp.Spec(), err)
		}
		st := sim.Run()
		if st.Delivered == 0 {
			t.Errorf("%s: nothing delivered", tp.Spec())
		}
		if st.Injected != st.Delivered+st.Stalled+st.InFlight {
			t.Errorf("%s: packet accounting broken: %d != %d+%d+%d",
				tp.Spec(), st.Injected, st.Delivered, st.Stalled, st.InFlight)
		}
		checkConservation(t, st, tp.Spec())
		if st.Energy.RouterTotalNJ <= 0 || st.Energy.LinkTotalNJ <= 0 {
			t.Errorf("%s: empty router/link energy on a delivering run", tp.Spec())
		}
	}
}
