package noc

// Regression tests for the horizon-exact accounting: the busy-time clamp
// (link utilization can never exceed 1.0), the injected = delivered +
// stalled + in-flight identity, the Warmup ≥ Horizon edge windows, the
// finite-buffer × cut-through combination the older suites never
// exercised, and the Workspace/Reset pooling semantics.

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// saturatedRouting drives one flow at exactly the model's top frequency,
// so every active link is back-to-back busy and the final transmission is
// always mid-flight at the horizon.
func saturatedRouting() (route.Routing, power.Model) {
	m := mesh.MustNew(8, 8)
	g := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 4, V: 5}, Rate: 3500}
	r := route.Routing{Topo: m, Flows: []route.Flow{{Comm: g, Path: route.XY(g.Src, g.Dst)}}}
	return r, power.KimHorowitz()
}

// checkIdentity asserts the horizon accounting identity on a Stats.
func checkIdentity(t *testing.T, st *Stats, label string) {
	t.Helper()
	if st.Injected != st.Delivered+st.Stalled+st.InFlight {
		t.Errorf("%s: accounting identity broken: injected %d != delivered %d + stalled %d + in-flight %d",
			label, st.Injected, st.Delivered, st.Stalled, st.InFlight)
	}
}

// A saturated link's utilization is exactly 1.0, never above — the
// historical engine accrued the over-horizon tail of the last
// transmission and reported > 1.0.
func TestSaturatedLinkUtilizationClamped(t *testing.T) {
	r, model := saturatedRouting()
	for _, sw := range []Switching{StoreAndForward, CutThrough} {
		sim, err := New(r, model, Config{Horizon: 100, Switching: sw})
		if err != nil {
			t.Fatal(err)
		}
		st := sim.Run()
		sawSaturated := false
		for id, u := range st.LinkUtilization {
			if u > 1.0 {
				t.Errorf("%v: link %d utilization %.6f > 1.0", sw, id, u)
			}
			if u == 1.0 {
				sawSaturated = true
			}
		}
		if !sawSaturated {
			t.Errorf("%v: no link reached utilization 1.0 on a back-to-back flow", sw)
		}
		if mu := st.MeanUtilization(); mu > 1.0 {
			t.Errorf("%v: mean utilization %.6f > 1.0", sw, mu)
		}
		checkIdentity(t, st, sw.String())
		if st.InFlight == 0 {
			t.Errorf("%v: saturated horizon run reports no in-flight packets", sw)
		}
	}
}

// The identity holds across the regimes that historically miscounted:
// clean runs, saturated runs, and a backpressure deadlock where most
// packets freeze in queues.
func TestAccountingIdentity(t *testing.T) {
	single, model := singleFlowRouting(t, 900)
	ring, _ := ringRouting(1150)
	cases := []struct {
		name string
		r    route.Routing
		cfg  Config
	}{
		{"uncontended", single, Config{Horizon: 500, Warmup: 100}},
		{"uncontended/cut-through", single, Config{Horizon: 500, Warmup: 100, Switching: CutThrough}},
		{"deadlocked-ring", ring, Config{Horizon: 2000, BufferPackets: 1}},
		{"buffered-ring/cut-through", ring, Config{Horizon: 1000, BufferPackets: 4, Switching: CutThrough}},
	}
	for _, tc := range cases {
		sim, err := New(tc.r, model, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := sim.Run()
		checkIdentity(t, st, tc.name)
		if st.Injected == 0 {
			t.Errorf("%s: degenerate run, nothing injected", tc.name)
		}
	}
}

// Warmup ≥ Horizon leaves no measurement window: delivered rates are 0 by
// definition (not NaN/Inf), while the physical figures (utilization,
// power) still cover the full horizon.
func TestEdgeWindows(t *testing.T) {
	r, model := singleFlowRouting(t, 900)
	for _, warmup := range []float64{500, 800} { // == and > the horizon
		sim, err := New(r, model, Config{Horizon: 500, Warmup: warmup})
		if err != nil {
			t.Fatal(err)
		}
		st := sim.Run()
		if got := st.DeliveredRate(1); got != 0 {
			t.Errorf("warmup %g: DeliveredRate %.3f, want 0 on an empty window", warmup, got)
		}
		if cs := st.PerComm[1]; cs.Packets != 0 || cs.DeliveredBits != 0 {
			t.Errorf("warmup %g: post-warmup samples recorded inside an empty window: %+v", warmup, cs)
		}
		if st.Delivered == 0 {
			t.Errorf("warmup %g: total delivery count should ignore the warmup filter", warmup)
		}
		if mu := st.MeanUtilization(); mu <= 0 || mu > 1 || math.IsNaN(mu) {
			t.Errorf("warmup %g: mean utilization %.3f out of (0, 1]", warmup, mu)
		}
		checkIdentity(t, st, "edge-window")
	}
	// DeliveredRate of a communication that never existed is 0, not a
	// panic or NaN.
	sim, err := New(r, model, Config{Horizon: 500})
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Run().DeliveredRate(404); got != 0 {
		t.Errorf("unknown comm delivered %.3f, want 0", got)
	}
}

// MeanUtilization over a run with no active links is 0.
func TestMeanUtilizationNoActiveLinks(t *testing.T) {
	m := mesh.MustNew(4, 4)
	sim, err := New(route.Routing{Topo: m}, power.KimHorowitz(), Config{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if st.MeanUtilization() != 0 || st.ActiveLinks != 0 {
		t.Errorf("empty routing: mean utilization %.3f over %d active links, want 0/0",
			st.MeanUtilization(), st.ActiveLinks)
	}
}

// Finite buffers × cut-through: the acyclic XY workload keeps delivering
// under tiny buffers, the cyclic ring still deadlocks, and ample buffers
// match the unbounded run — the combination the store-and-forward-only
// backpressure suite never covered.
func TestCutThroughFiniteBuffers(t *testing.T) {
	m := mesh.MustNew(8, 8)
	set := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 4, V: 5}, Rate: 900},
		{ID: 2, Src: mesh.Coord{U: 2, V: 1}, Dst: mesh.Coord{U: 5, V: 6}, Rate: 900},
		{ID: 3, Src: mesh.Coord{U: 3, V: 2}, Dst: mesh.Coord{U: 6, V: 7}, Rate: 900},
	}
	var flows []route.Flow
	for _, c := range set {
		flows = append(flows, route.Flow{Comm: c, Path: route.XY(c.Src, c.Dst)})
	}
	r := route.Routing{Topo: m, Flows: flows}
	sim, err := New(r, power.KimHorowitz(), Config{
		Horizon: 3000, Warmup: 300, Switching: CutThrough, BufferPackets: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	for _, c := range set {
		if got := st.DeliveredRate(c.ID); math.Abs(got-c.Rate)/c.Rate > 0.10 {
			t.Errorf("comm %d delivered %.0f, want ≈%.0f under cut-through tiny buffers", c.ID, got, c.Rate)
		}
	}
	checkIdentity(t, st, "xy/cut-through/tiny")

	// The cyclic ring that deadlocks under store-and-forward (see
	// TestRingDeadlocksWithTinyBuffers) keeps flowing under cut-through
	// with the same 1-packet buffers: the head is forwarded one flit time
	// into service, so each single buffer slot turns over before the
	// circular wait can close. Pin the contrast — and the accounting
	// identity — in both modes.
	ring, model := ringRouting(1150)
	demand := 4 * 1150.0
	runRing := func(sw Switching) (*Stats, float64) {
		sim, err := New(ring, model, Config{Horizon: 4000, Switching: sw, BufferPackets: 1})
		if err != nil {
			t.Fatal(err)
		}
		st := sim.Run()
		total := 0.0
		for id := 1; id <= 4; id++ {
			total += st.DeliveredRate(id)
		}
		checkIdentity(t, st, "ring/"+sw.String()+"/tiny")
		return st, total
	}
	sfStats, sfTotal := runRing(StoreAndForward)
	if sfStats.Stalled == 0 || sfTotal >= demand*0.5 {
		t.Errorf("store-and-forward ring delivered %.0f of %.0f with %d stalled — expected deadlock collapse",
			sfTotal, demand, sfStats.Stalled)
	}
	if _, ctTotal := runRing(CutThrough); math.Abs(ctTotal-demand)/demand > 0.05 {
		t.Errorf("cut-through ring delivered %.0f of %.0f — expected the pipeline to drain the cycle", ctTotal, demand)
	}

	run := func(buf int) *Stats {
		sim, err := New(ring, model, Config{Horizon: 1500, Warmup: 100, Switching: CutThrough, BufferPackets: buf})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	unbounded, buffered := run(0), run(64)
	for id := 1; id <= 4; id++ {
		if a, b := unbounded.DeliveredRate(id), buffered.DeliveredRate(id); math.Abs(a-b) > 1e-9 {
			t.Errorf("comm %d: cut-through unbounded %.2f vs ample buffers %.2f", id, a, b)
		}
	}
}

// Workspace pooling: reuse across trials matches fresh simulators, Reset
// wipes attachments, and a second Run without Reset panics instead of
// silently reusing dirty state.
func TestWorkspaceReuseSemantics(t *testing.T) {
	r, model := singleFlowRouting(t, 1500)
	cfg := Config{Horizon: 800, Warmup: 100}
	ws := NewWorkspace()

	sim, err := ws.Simulator(r, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr Tracer
	sim.Trace(&tr)
	observed := 0
	sim.Observe(func(Delivery) { observed++ })
	first := sim.Run()
	if len(tr.Events()) == 0 || observed == 0 {
		t.Fatal("tracer/observer not invoked on the first pooled run")
	}

	// Second trial through the pool: attachments must be gone.
	sim, err = ws.Simulator(r, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, delivered := len(tr.Events()), observed
	second := sim.Run()
	if len(tr.Events()) != events || observed != delivered {
		t.Error("Reset did not detach the previous trial's tracer/observer")
	}
	if first.PerComm[1] != second.PerComm[1] || first.PowerMW != second.PowerMW {
		t.Error("pooled rerun of the identical instance diverged")
	}

	// Run without an intervening Reset must refuse.
	defer func() {
		if recover() == nil {
			t.Error("second Run without Reset did not panic")
		}
	}()
	sim.Run()
}

// An infeasible binding leaves the workspace usable for the next trial.
func TestWorkspaceSurvivesInfeasibleBinding(t *testing.T) {
	ws := NewWorkspace()
	bad, model := singleFlowRouting(t, 5000) // above the top frequency
	if _, err := ws.Simulator(bad, model, Config{}); err == nil {
		t.Fatal("overloaded routing accepted")
	}
	good, _ := singleFlowRouting(t, 900)
	sim, err := ws.Simulator(good, model, Config{Horizon: 500})
	if err != nil {
		t.Fatal(err)
	}
	if st := sim.Run(); st.Delivered == 0 {
		t.Error("workspace unusable after an infeasible binding")
	}
}

// The streaming WorkloadObserver exports the same goodput as the
// retention-based Tracer.ExportWorkload and as Stats.DeliveredRate.
func TestWorkloadObserverMatchesTracerExport(t *testing.T) {
	r, model := singleFlowRouting(t, 900)
	cfg := Config{Horizon: 2000, Warmup: 200, PacketBits: 2048}
	base := comm.Set{r.Flows[0].Comm}

	sim, err := New(r, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr Tracer
	sim.Trace(&tr)
	var obs WorkloadObserver
	if err := obs.Reset(base, cfg.Warmup, cfg.Horizon); err != nil {
		t.Fatal(err)
	}
	sim.Observe(obs.Record)
	st := sim.Run()

	fromTrace, err := tr.ExportWorkload(nil, base, cfg.PacketBits, cfg.Warmup, cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	fromObs, err := obs.Export(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromTrace) != 1 || len(fromObs) != 1 {
		t.Fatalf("exports sized %d/%d, want 1/1", len(fromTrace), len(fromObs))
	}
	if fromObs[0] != fromTrace[0] {
		t.Errorf("observer export %+v != tracer export %+v", fromObs[0], fromTrace[0])
	}
	if math.Abs(fromObs[0].Rate-st.DeliveredRate(1)) > 1e-9 {
		t.Errorf("observer rate %.4f, stats goodput %.4f", fromObs[0].Rate, st.DeliveredRate(1))
	}

	// The export reuses the destination buffer.
	again, err := obs.Export(fromObs)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &fromObs[:1][0] {
		t.Error("Export did not reuse the destination buffer")
	}

	// Degenerate windows and unknown comms fail loudly.
	if err := obs.Reset(base, 100, 100); err == nil {
		t.Error("empty observer window accepted")
	}
	var stray WorkloadObserver
	if err := stray.Reset(comm.Set{}, cfg.Warmup, cfg.Horizon); err != nil {
		t.Fatal(err)
	}
	stray.Record(Delivery{CommID: 7, Injected: cfg.Warmup + 1, Bits: 2048})
	if _, err := stray.Export(nil); err == nil {
		t.Error("delivery for a comm missing from the base set accepted")
	}
}
