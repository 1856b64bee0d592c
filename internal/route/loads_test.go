package route

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
)

func TestLoadTrackerAddRemove(t *testing.T) {
	m := mesh.MustNew(3, 3)
	tr := NewLoadTrackerTopo(m)
	l := mesh.Link{From: mesh.Coord{U: 1, V: 1}, To: mesh.Coord{U: 1, V: 2}}
	tr.Add(l, 100)
	tr.Add(l, 50)
	if got := tr.Load(l); got != 150 {
		t.Fatalf("Load = %g, want 150", got)
	}
	tr.Add(l, -150)
	if got := tr.Load(l); got != 0 {
		t.Fatalf("Load after removal = %g, want 0", got)
	}
	// Tiny negative residue clamps silently.
	tr.Add(l, 1.0/3)
	tr.Add(l, -1.0/3-1e-12)
	if got := tr.Load(l); got != 0 {
		t.Fatalf("Load after noisy removal = %g, want 0", got)
	}
}

func TestLoadTrackerPanicsOnLargeNegative(t *testing.T) {
	m := mesh.MustNew(3, 3)
	tr := NewLoadTrackerTopo(m)
	l := mesh.Link{From: mesh.Coord{U: 1, V: 1}, To: mesh.Coord{U: 1, V: 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("large negative load did not panic")
		}
	}()
	tr.Add(l, -5)
}

func TestLoadTrackerAddPathAndClone(t *testing.T) {
	m := mesh.MustNew(4, 4)
	tr := NewLoadTrackerTopo(m)
	p := XY(mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 3, V: 4})
	tr.AddPath(p, 10)
	// A second tracker on the same mesh holds its own loads.
	clone := NewLoadTrackerTopo(m)
	clone.AddPath(p, 10)
	clone.AddPath(p, 5)
	for _, l := range p {
		if tr.Load(l) != 10 {
			t.Fatalf("original mutated: %g", tr.Load(l))
		}
		if clone.Load(l) != 15 {
			t.Fatalf("clone load %g, want 15", clone.Load(l))
		}
	}
	clone.Reset()
	if clone.MaxLoad() != 0 {
		t.Fatal("Reset left residual load")
	}
}

func TestLinksByLoadDesc(t *testing.T) {
	m := mesh.MustNew(3, 3)
	tr := NewLoadTrackerTopo(m)
	l1 := mesh.Link{From: mesh.Coord{U: 1, V: 1}, To: mesh.Coord{U: 1, V: 2}}
	l2 := mesh.Link{From: mesh.Coord{U: 2, V: 1}, To: mesh.Coord{U: 2, V: 2}}
	l3 := mesh.Link{From: mesh.Coord{U: 3, V: 1}, To: mesh.Coord{U: 3, V: 2}}
	tr.Add(l1, 5)
	tr.Add(l2, 20)
	tr.Add(l3, 10)
	got := tr.LinksByLoadDesc()
	if len(got) != 3 || got[0] != l2 || got[1] != l3 || got[2] != l1 {
		t.Fatalf("LinksByLoadDesc = %v", got)
	}
}

func TestLinksByLoadDescDeterministicTies(t *testing.T) {
	m := mesh.MustNew(3, 3)
	tr := NewLoadTrackerTopo(m)
	for _, l := range m.Links()[:6] {
		tr.Add(l, 7)
	}
	a := tr.LinksByLoadDesc()
	b := tr.LinksByLoadDesc()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie order not deterministic")
		}
	}
}

func TestDeltaPowerAndLinkPowerWith(t *testing.T) {
	m := mesh.MustNew(2, 2)
	ev := power.Compile(power.Figure2()) // P = load³, BW 4
	tr := NewLoadTrackerTopo(m)
	l := mesh.Link{From: mesh.Coord{U: 1, V: 1}, To: mesh.Coord{U: 1, V: 2}}
	tr.Add(l, 1)
	if got := tr.LinkPowerWithEv(ev, l, 1); math.Abs(got-8) > 1e-9 {
		t.Errorf("LinkPowerWithEv = %g, want 8", got)
	}
	if got := tr.DeltaPowerEv(ev, l, 1); math.Abs(got-7) > 1e-9 {
		t.Errorf("DeltaPowerEv = %g, want 7 (2³−1³)", got)
	}
	// Overload ⇒ +Inf.
	if got := tr.DeltaPowerEv(ev, l, 100); !math.IsInf(got, 1) {
		t.Errorf("overload DeltaPowerEv = %g, want +Inf", got)
	}
	if got := tr.LinkPowerWithEv(ev, l, 100); !math.IsInf(got, 1) {
		t.Errorf("overload LinkPowerWithEv = %g, want +Inf", got)
	}
}

func TestTrackerPowerMatchesEvaluate(t *testing.T) {
	m := grid()
	model := power.KimHorowitz()
	g := c(1, 1, 1, 5, 6, 900)
	r := Routing{Topo: m, Flows: []Flow{{Comm: g, Path: XY(g.Src, g.Dst)}}}
	res := Evaluate(r, model)

	tr := NewLoadTrackerTopo(m)
	tr.AddPath(XY(g.Src, g.Dst), 900)
	b, err := tr.Power(model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Total()-res.Power.Total()) > 1e-9 {
		t.Errorf("tracker power %g != evaluate power %g", b.Total(), res.Power.Total())
	}
}
