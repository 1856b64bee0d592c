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

// minimalCycleRouting builds four *minimal* 3-hop flows whose middle hops
// circle the square (4,4)-(4,5)-(5,5)-(5,4): the relay buffers of the four
// square links form a dependency cycle (SE, SW, NW and NE flows turning in
// the same rotational direction). Unlike the non-minimal ring of the
// backpressure tests, every path here is a legal Manhattan path, so this
// is a hazard the paper's heuristics could genuinely produce.
func minimalCycleRouting(rate float64) (route.Routing, power.Model) {
	m := mesh.MustNew(8, 8)
	c := func(id int, src, dst mesh.Coord) comm.Comm {
		return comm.Comm{ID: id, Src: src, Dst: dst, Rate: rate}
	}
	mk := func(id int, cells ...mesh.Coord) route.Flow {
		var p route.Path
		for i := 0; i+1 < len(cells); i++ {
			p = append(p, mesh.Link{From: cells[i], To: cells[i+1]})
		}
		return route.Flow{Comm: c(id, cells[0], cells[len(cells)-1]), Path: p}
	}
	flows := []route.Flow{
		// SE: E,E,S — holds top-E requesting right-S.
		mk(1, mesh.Coord{U: 4, V: 3}, mesh.Coord{U: 4, V: 4}, mesh.Coord{U: 4, V: 5}, mesh.Coord{U: 5, V: 5}),
		// SW: S,S,W — holds right-S requesting bottom-W.
		mk(2, mesh.Coord{U: 3, V: 5}, mesh.Coord{U: 4, V: 5}, mesh.Coord{U: 5, V: 5}, mesh.Coord{U: 5, V: 4}),
		// NW: W,W,N — holds bottom-W requesting left-N.
		mk(3, mesh.Coord{U: 5, V: 6}, mesh.Coord{U: 5, V: 5}, mesh.Coord{U: 5, V: 4}, mesh.Coord{U: 4, V: 4}),
		// NE: N,N,E — holds left-N requesting top-E.
		mk(4, mesh.Coord{U: 6, V: 4}, mesh.Coord{U: 5, V: 4}, mesh.Coord{U: 4, V: 4}, mesh.Coord{U: 4, V: 5}),
	}
	return route.Routing{Topo: m, Flows: flows}, power.KimHorowitz()
}

// The minimal cycle instance passes full Manhattan validation and has a
// cyclic CDG — the hazard is real, not an artifact of crafted paths.
func TestMinimalCycleIsLegalManhattanRouting(t *testing.T) {
	r, _ := minimalCycleRouting(1700)
	var set comm.Set
	for _, f := range r.Flows {
		set = append(set, f.Comm)
	}
	if err := r.Validate(set, 1); err != nil {
		t.Fatalf("cycle routing not a valid Manhattan routing: %v", err)
	}
	if deadlock.BuildCDG(r).Acyclic() {
		t.Fatal("expected cyclic CDG")
	}
}

// Single-class operation with 1-packet buffers deadlocks on the minimal
// cycle; installing the Duato escape-channel assignment on the same
// routing, same buffers, restores full delivery. This is the dynamic
// counterpart of the static certification in internal/deadlock.
func TestEscapeChannelsResolveDeadlock(t *testing.T) {
	r, model := minimalCycleRouting(1200)
	demand := 4 * 1200.0

	run := func(withVCs bool) *Stats {
		sim, err := New(r, model, Config{Horizon: 4000, Warmup: 500, BufferPackets: 1})
		if err != nil {
			t.Fatal(err)
		}
		if withVCs {
			assign := deadlock.EscapeChannels(r)
			if err := assign.Validate(r); err != nil {
				t.Fatal(err)
			}
			if err := sim.AssignClasses(assign.Classes); err != nil {
				t.Fatal(err)
			}
		}
		return sim.Run()
	}

	plain := run(false)
	total := 0.0
	for id := 1; id <= 4; id++ {
		total += plain.DeliveredRate(id)
	}
	if total > demand*0.5 {
		t.Fatalf("single-class tiny buffers delivered %.0f of %.0f — expected deadlock", total, demand)
	}
	if plain.Stalled == 0 {
		t.Fatal("no stalled packets in the deadlocked run")
	}

	vcs := run(true)
	for id := 1; id <= 4; id++ {
		got := vcs.DeliveredRate(id)
		if math.Abs(got-1200)/1200 > 0.08 {
			t.Errorf("with escape VCs comm %d delivered %.0f, want ≈1200", id, got)
		}
	}
}

// The class assignment is validated for shape.
func TestAssignClassesValidation(t *testing.T) {
	r, model := minimalCycleRouting(500)
	sim, err := New(r, model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AssignClasses([][]int{{0}}); err == nil {
		t.Error("wrong flow count accepted")
	}
	if err := sim.AssignClasses([][]int{{0, 0}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0}}); err == nil {
		t.Error("short class vector accepted")
	}
	bad := [][]int{{0, 0, 9}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	if err := sim.AssignClasses(bad); err == nil {
		t.Error("out-of-range class accepted")
	}
	good := deadlock.EscapeChannels(r)
	if err := sim.AssignClasses(good.Classes); err != nil {
		t.Fatal(err)
	}
	if err := sim.AssignClasses(nil); err != nil {
		t.Fatal(err)
	}
}

// With ample buffers the VC assignment changes nothing measurable: the
// physical serializer is the only shared resource.
func TestVCsNeutralWithAmpleBuffers(t *testing.T) {
	r, model := minimalCycleRouting(1000)
	run := func(withVCs bool) *Stats {
		sim, err := New(r, model, Config{Horizon: 2000, Warmup: 200, BufferPackets: 64})
		if err != nil {
			t.Fatal(err)
		}
		if withVCs {
			assign := deadlock.EscapeChannels(r)
			if err := sim.AssignClasses(assign.Classes); err != nil {
				t.Fatal(err)
			}
		}
		return sim.Run()
	}
	a, b := run(false), run(true)
	for id := 1; id <= 4; id++ {
		if math.Abs(a.DeliveredRate(id)-b.DeliveredRate(id)) > 50 {
			t.Errorf("comm %d: %.0f vs %.0f with ample buffers", id, a.DeliveredRate(id), b.DeliveredRate(id))
		}
	}
}
