package noc

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// Classic cut-through latency: packetTime + (hops−1)·flitTime on an
// uncontended path with uniform link rate, versus hops·packetTime under
// store-and-forward.
func TestCutThroughLatencyFormula(t *testing.T) {
	m := mesh.MustNew(8, 8)
	g := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 6}, Rate: 800}
	r := route.Routing{Topo: m, Flows: []route.Flow{{Comm: g, Path: route.XY(g.Src, g.Dst)}}}
	model := power.KimHorowitz() // 800 quantizes to 1000 Mb/s
	hops := 5.0
	packetTime := 2048.0 / 1000.0
	flitTime := 128.0 / 1000.0

	sf, err := New(r, model, Config{Horizon: 2000, Warmup: 100})
	if err != nil {
		t.Fatal(err)
	}
	sfStats := sf.Run()
	if got, want := sfStats.PerComm[1].AvgLatency(), hops*packetTime; math.Abs(got-want) > 1e-6 {
		t.Errorf("store-and-forward latency %.4f, want %.4f", got, want)
	}

	ct, err := New(r, model, Config{Horizon: 2000, Warmup: 100, Switching: CutThrough})
	if err != nil {
		t.Fatal(err)
	}
	ctStats := ct.Run()
	if got, want := ctStats.PerComm[1].AvgLatency(), packetTime+(hops-1)*flitTime; math.Abs(got-want) > 1e-6 {
		t.Errorf("cut-through latency %.4f, want %.4f", got, want)
	}
}

// Cut-through never increases latency and never changes goodput or power.
func TestCutThroughDominatesStoreAndForward(t *testing.T) {
	m := mesh.MustNew(8, 8)
	flows := []route.Flow{}
	set := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 5, V: 5}, Rate: 1100},
		{ID: 2, Src: mesh.Coord{U: 2, V: 1}, Dst: mesh.Coord{U: 6, V: 4}, Rate: 700},
		{ID: 3, Src: mesh.Coord{U: 1, V: 2}, Dst: mesh.Coord{U: 4, V: 6}, Rate: 900},
	}
	for _, c := range set {
		flows = append(flows, route.Flow{Comm: c, Path: route.XY(c.Src, c.Dst)})
	}
	r := route.Routing{Topo: m, Flows: flows}
	model := power.KimHorowitz()
	run := func(sw Switching) *Stats {
		sim, err := New(r, model, Config{Horizon: 3000, Warmup: 300, Switching: sw})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	sf, ct := run(StoreAndForward), run(CutThrough)
	for _, c := range set {
		sfLat := sf.PerComm[c.ID].AvgLatency()
		ctLat := ct.PerComm[c.ID].AvgLatency()
		if ctLat > sfLat+1e-6 {
			t.Errorf("comm %d: cut-through latency %.3f > store-and-forward %.3f", c.ID, ctLat, sfLat)
		}
		if rel := math.Abs(ct.DeliveredRate(c.ID)-c.Rate) / c.Rate; rel > 0.08 {
			t.Errorf("comm %d: cut-through goodput off by %.1f%%", c.ID, rel*100)
		}
	}
	if sf.PowerMW != ct.PowerMW {
		t.Errorf("power differs across switching modes: %g vs %g", sf.PowerMW, ct.PowerMW)
	}
}

// Under cut-through a slower downstream link still bounds the pipeline:
// the tail cannot clear faster than the upstream serialization allows.
func TestCutThroughMixedFrequencies(t *testing.T) {
	m := mesh.MustNew(8, 8)
	// One hot flow (2200 → 2500 Mb/s links) feeding a path segment, one
	// cool flow sharing a link quantized lower.
	g := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 3, V: 3}, Rate: 2200}
	r := route.Routing{Topo: m, Flows: []route.Flow{{Comm: g, Path: route.XY(g.Src, g.Dst)}}}
	sim, err := New(r, power.KimHorowitz(), Config{Horizon: 2000, Warmup: 100, Switching: CutThrough})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	// All links at 2500: latency = packet + 3·flit.
	want := 2048.0/2500 + 3*128.0/2500
	if got := st.PerComm[1].AvgLatency(); math.Abs(got-want) > 1e-6 {
		t.Errorf("latency %.4f, want %.4f", got, want)
	}
	if rel := math.Abs(st.DeliveredRate(1)-2200) / 2200; rel > 0.06 {
		t.Errorf("goodput off by %.1f%%", rel*100)
	}
}

func TestSwitchingString(t *testing.T) {
	if StoreAndForward.String() != "store-and-forward" || CutThrough.String() != "cut-through" {
		t.Error("switching names wrong")
	}
}
