package noc

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

func singleFlowRouting(t *testing.T, rate float64) (route.Routing, power.Model) {
	t.Helper()
	m := mesh.MustNew(8, 8)
	g := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 4, V: 5}, Rate: rate}
	r := route.Routing{Topo: m, Flows: []route.Flow{{Comm: g, Path: route.XY(g.Src, g.Dst)}}}
	return r, power.KimHorowitz()
}

// A single flow on an uncontended path delivers its requested rate and a
// per-packet latency of hops × (bits/freq).
func TestSingleFlowDeliversRequestedRate(t *testing.T) {
	r, model := singleFlowRouting(t, 900)
	sim, err := New(r, model, Config{Horizon: 2000, Warmup: 200, PacketBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	got := st.DeliveredRate(1)
	if math.Abs(got-900)/900 > 0.05 {
		t.Errorf("delivered %.1f Mb/s, want ≈900", got)
	}
	// 900 Mb/s quantizes to 1000 Mb/s links: 2048 bits take 2.048 µs per
	// hop, 7 hops, no queueing.
	cs := st.PerComm[1]
	want := 7 * 2048.0 / 1000.0
	if math.Abs(cs.AvgLatency()-want) > 0.01 {
		t.Errorf("avg latency %.3f µs, want %.3f", cs.AvgLatency(), want)
	}
	if cs.MaxLatency > want+0.01 {
		t.Errorf("max latency %.3f µs, want %.3f (no queueing possible)", cs.MaxLatency, want)
	}
}

// Simulated power equals the analytic evaluation of the same routing.
func TestSimPowerMatchesAnalytic(t *testing.T) {
	r, model := singleFlowRouting(t, 1800)
	res := route.Evaluate(r, model)
	sim, err := New(r, model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if math.Abs(st.PowerMW-res.Power.Total()) > 1e-9 {
		t.Errorf("sim power %.3f mW, analytic %.3f mW", st.PowerMW, res.Power.Total())
	}
	if st.ActiveLinks != res.Power.ActiveLinks {
		t.Errorf("sim active links %d, analytic %d", st.ActiveLinks, res.Power.ActiveLinks)
	}
	if math.Abs(st.EnergyNJ-st.PowerMW*st.Horizon) > 1e-9 {
		t.Error("energy != power × horizon")
	}
}

// Link utilization approximates analytic load / assigned frequency.
func TestUtilizationMatchesLoadOverFreq(t *testing.T) {
	r, model := singleFlowRouting(t, 2200) // quantizes to 2500
	sim, err := New(r, model, Config{Horizon: 4000, PacketBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	want := 2200.0 / 2500.0
	for id, f := range st.LinkFreq {
		if f == 0 {
			continue
		}
		if u := st.LinkUtilization[id]; math.Abs(u-want) > 0.05 {
			t.Errorf("link %d utilization %.3f, want ≈%.3f", id, u, want)
		}
	}
}

// Infeasible routings (load above the top frequency) are rejected.
func TestNewRejectsOverload(t *testing.T) {
	r, model := singleFlowRouting(t, 5000)
	if _, err := New(r, model, Config{}); err == nil {
		t.Fatal("overloaded routing accepted")
	}
}

// Contention: two flows sharing a link serialize but both still deliver
// their full rate when the link frequency covers the sum.
func TestSharedLinkServesBothFlows(t *testing.T) {
	m := mesh.MustNew(8, 8)
	g1 := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 5}, Rate: 1200}
	g2 := comm.Comm{ID: 2, Src: mesh.Coord{U: 1, V: 2}, Dst: mesh.Coord{U: 1, V: 6}, Rate: 1200}
	r := route.Routing{Topo: m, Flows: []route.Flow{
		{Comm: g1, Path: route.XY(g1.Src, g1.Dst)},
		{Comm: g2, Path: route.XY(g2.Src, g2.Dst)},
	}}
	model := power.KimHorowitz() // shared links carry 2400 → 2500 Mb/s
	sim, err := New(r, model, Config{Horizon: 3000, Warmup: 300, PacketBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	for _, id := range []int{1, 2} {
		if got := st.DeliveredRate(id); math.Abs(got-1200)/1200 > 0.06 {
			t.Errorf("comm %d delivered %.1f Mb/s, want ≈1200", id, got)
		}
	}
	// Shared links run hotter than private ones.
	if st.MeanUtilization() <= 0 {
		t.Error("no utilization recorded")
	}
}

// End-to-end: a heuristic routing of a random workload, replayed in the
// simulator, delivers every communication's rate within tolerance. This is
// the E15 cross-validation experiment in miniature.
func TestHeuristicRoutingDeliversWorkload(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 21).Uniform(15, 100, 1200)
	r, err := heur.PR{}.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := route.Evaluate(r, model)
	if !res.Feasible {
		t.Skip("instance infeasible for PR; seed chosen to avoid this")
	}
	sim, err := New(res.Routing, model, Config{Horizon: 3000, Warmup: 500, PacketBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	for _, c := range set {
		got := st.DeliveredRate(c.ID)
		if math.Abs(got-c.Rate)/c.Rate > 0.10 {
			t.Errorf("comm %d delivered %.1f Mb/s, want ≈%.1f", c.ID, got, c.Rate)
		}
	}
}

// Multi-path flows: fragments of a split communication are aggregated in
// the per-communication stats.
func TestMultiPathAggregation(t *testing.T) {
	m := mesh.MustNew(4, 4)
	g := comm.Comm{ID: 9, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 4, V: 4}, Rate: 2000}
	r := route.Routing{Topo: m, Flows: []route.Flow{
		{Comm: comm.Comm{ID: 9, Src: g.Src, Dst: g.Dst, Rate: 1000}, Path: route.XY(g.Src, g.Dst)},
		{Comm: comm.Comm{ID: 9, Src: g.Src, Dst: g.Dst, Rate: 1000}, Path: route.YX(g.Src, g.Dst)},
	}}
	model := power.KimHorowitz()
	sim, err := New(r, model, Config{Horizon: 3000, Warmup: 300})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if cs := st.PerComm[9]; math.Abs(cs.RequestedRate-2000) > 1e-9 {
		t.Errorf("aggregated request %.1f, want 2000", cs.RequestedRate)
	}
	if got := st.DeliveredRate(9); math.Abs(got-2000)/2000 > 0.06 {
		t.Errorf("aggregated delivery %.1f Mb/s, want ≈2000", got)
	}
}

// Determinism: identical runs produce identical statistics.
func TestSimDeterministic(t *testing.T) {
	r, model := singleFlowRouting(t, 1500)
	run := func() *Stats {
		sim, err := New(r, model, Config{Horizon: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	a, b := run(), run()
	if a.PerComm[1] != b.PerComm[1] {
		t.Error("per-comm stats differ between identical runs")
	}
	if a.PowerMW != b.PowerMW || a.EnergyNJ != b.EnergyNJ {
		t.Error("power/energy differ between identical runs")
	}
}

func TestSummaryRenders(t *testing.T) {
	r, model := singleFlowRouting(t, 800)
	sim, err := New(r, model, Config{Horizon: 500})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	s := st.Summary()
	if len(s) == 0 {
		t.Fatal("empty summary")
	}
}
