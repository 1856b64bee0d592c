package noc

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/deadlock"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// ringRouting builds a 4-flow buffer-cycle around the unit square: the
// four links L0=(1,1)→(1,2) E, L1=(1,2)→(2,2) S, L2=(2,2)→(2,1) W,
// L3=(2,1)→(1,1) N each carry three 3-hop flows, so every relay buffer
// feeds the next link of the cycle. (The 3-hop paths are deliberately
// non-minimal: this is a switching-level stress instance for the
// simulator, not a Manhattan routing.)
func ringRouting(rate float64) (route.Routing, power.Model) {
	m := mesh.MustNew(3, 3)
	corners := []mesh.Coord{{U: 1, V: 1}, {U: 1, V: 2}, {U: 2, V: 2}, {U: 2, V: 1}}
	ringLink := func(i int) mesh.Link {
		return mesh.Link{From: corners[i%4], To: corners[(i+1)%4]}
	}
	var flows []route.Flow
	for f := 0; f < 4; f++ {
		path := route.Path{ringLink(f), ringLink(f + 1), ringLink(f + 2)}
		flows = append(flows, route.Flow{
			Comm: comm.Comm{ID: f + 1, Src: corners[f], Dst: corners[(f+3)%4], Rate: rate},
			Path: path,
		})
	}
	return route.Routing{Topo: m, Flows: flows}, power.KimHorowitz()
}

// With unbounded buffers the ring workload flows freely even though its
// CDG is cyclic — buffer space absorbs the dependency. Per-link load is
// 3×rate, so rate 1100 keeps every link within the 3.5 Gb/s budget.
func TestRingFlowsWithInfiniteBuffers(t *testing.T) {
	r, model := ringRouting(1100)
	sim, err := New(r, model, Config{Horizon: 2000, Warmup: 200})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	for id := 1; id <= 4; id++ {
		if got := st.DeliveredRate(id); math.Abs(got-1100)/1100 > 0.08 {
			t.Errorf("comm %d delivered %.0f, want ≈1100", id, got)
		}
	}
	if st.Stalled > 4 {
		t.Errorf("unexpected stalls with infinite buffers: %d", st.Stalled)
	}
}

// With a single-packet relay buffer per link and near-saturating
// injection, the cyclic buffer dependencies freeze the ring: the CDG
// analysis predicts the hazard, and the simulator exhibits it as stalled
// packets and collapsed throughput. This is exactly why the paper assumes
// a deadlock-avoidance mechanism (escape channels / resource ordering).
func TestRingDeadlocksWithTinyBuffers(t *testing.T) {
	r, model := ringRouting(1150) // 3×1150 = 3450 ≈ full links
	g := deadlock.BuildCDG(r)
	if g.Acyclic() {
		t.Fatal("ring CDG should be cyclic")
	}
	sim, err := New(r, model, Config{Horizon: 4000, Warmup: 0, BufferPackets: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if st.Stalled == 0 {
		t.Error("expected stalled packets under tiny buffers")
	}
	total := 0.0
	for id := 1; id <= 4; id++ {
		total += st.DeliveredRate(id)
	}
	if demand := 4 * 1150.0; total >= demand*0.5 {
		t.Errorf("ring delivered %.0f of %.0f Mb/s — expected deadlock collapse", total, demand)
	}
}

// An XY routing (acyclic CDG) with the same tiny buffers keeps flowing:
// backpressure alone does not deadlock a dependency-free routing.
func TestXYFlowsWithTinyBuffers(t *testing.T) {
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
	if !deadlock.BuildCDG(r).Acyclic() {
		t.Fatal("XY CDG should be acyclic")
	}
	sim, err := New(r, power.KimHorowitz(), Config{Horizon: 3000, Warmup: 300, BufferPackets: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	for _, c := range set {
		if got := st.DeliveredRate(c.ID); math.Abs(got-c.Rate)/c.Rate > 0.10 {
			t.Errorf("comm %d delivered %.0f, want ≈%.0f", c.ID, got, c.Rate)
		}
	}
}

// Buffered and unbuffered runs agree when buffers are ample.
func TestLargeBuffersMatchUnbounded(t *testing.T) {
	r, model := ringRouting(1000)
	run := func(buf int) *Stats {
		sim, err := New(r, model, Config{Horizon: 1500, Warmup: 100, BufferPackets: buf})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	unbounded, buffered := run(0), run(64)
	for id := 1; id <= 4; id++ {
		a, b := unbounded.DeliveredRate(id), buffered.DeliveredRate(id)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("comm %d: unbounded %.2f vs buffered %.2f", id, a, b)
		}
	}
}
