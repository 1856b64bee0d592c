package route

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
)

func TestPathSetAcquireReusesBacking(t *testing.T) {
	var ps PathSet
	set := comm.Set{{ID: 2}, {ID: 5}}
	ps.ResetFor(set)
	p := ps.Acquire(5, 4)
	if len(p) != 0 || cap(p) < 4 {
		t.Fatalf("Acquire returned len=%d cap=%d", len(p), cap(p))
	}
	p = append(p, mesh.Link{From: mesh.Coord{U: 1, V: 1}, To: mesh.Coord{U: 1, V: 2}})
	ps.Set(5, p)
	first := &ps.Get(5)[0]
	again := ps.Acquire(5, 1)
	again = append(again, mesh.Link{From: mesh.Coord{U: 2, V: 1}, To: mesh.Coord{U: 2, V: 2}})
	if &again[0] != first {
		t.Error("Acquire did not reuse the slot's backing array")
	}
	if ps.Get(2) != nil {
		t.Errorf("untouched slot not empty: %v", ps.Get(2))
	}
}

func TestPathSetSetCopyDoesNotAlias(t *testing.T) {
	var ps PathSet
	ps.Reset(1)
	src := Path{{From: mesh.Coord{U: 1, V: 1}, To: mesh.Coord{U: 1, V: 2}}}
	ps.SetCopy(0, src)
	src[0] = mesh.Link{From: mesh.Coord{U: 9, V: 9}, To: mesh.Coord{U: 9, V: 8}}
	if ps.Get(0)[0] == src[0] {
		t.Error("SetCopy aliased the source path")
	}
}

func TestWorkspaceKeepsStatePerPlatform(t *testing.T) {
	ws := NewWorkspace()
	scratch := func() any { return ws.Scratch("x", func() any { return new(int) }) }
	m1 := mesh.MustNew(4, 6)
	ws.Bind(m1)
	tr, got := ws.Tracker(), scratch()
	m2 := mesh.MustNew(4, 6) // same Spec, different mesh value
	ws.Bind(m2)
	if ws.Tracker() != tr || scratch() != got {
		t.Error("same-Spec rebind replaced the platform's state")
	}
	if ws.Tracker().mesh != m2 {
		t.Error("rebind did not repoint the tracker's mesh")
	}
	other := mesh.MustNew(6, 4)
	ws.Bind(other)
	if scratch() == got || ws.Tracker().mesh.Q() != 4 {
		t.Error("a new platform shares the previous platform's state")
	}
	ws.Bind(m2)
	if ws.Tracker() != tr || scratch() != got {
		t.Error("switching back dropped the platform's state")
	}
	for i := 0; i < maxPlatforms; i++ { // push m2 out
		ws.Bind(mesh.MustNew(2, 2+i))
	}
	if len(ws.platforms) != maxPlatforms {
		t.Errorf("workspace keeps %d platforms, cap %d", len(ws.platforms), maxPlatforms)
	}
	ws.Bind(m2)
	if ws.Tracker() == tr {
		t.Error("the least recently bound platform was not dropped at the cap")
	}
}

func TestRoutingCloneIsDeep(t *testing.T) {
	m := mesh.MustNew(3, 3)
	p := XY(mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 3, V: 3})
	r := Routing{Topo: m, Flows: []Flow{{Comm: comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 3, V: 3}, Rate: 5}, Path: p}}}
	cp := r.Clone()
	p[0] = mesh.Link{From: mesh.Coord{U: 2, V: 2}, To: mesh.Coord{U: 2, V: 3}}
	if cp.Flows[0].Path[0] == p[0] {
		t.Error("Clone shares path backing with the original")
	}
}

func TestLoadsIntoAndView(t *testing.T) {
	m := mesh.MustNew(3, 3)
	tr := NewLoadTrackerTopo(m)
	l := mesh.Link{From: mesh.Coord{U: 1, V: 1}, To: mesh.Coord{U: 1, V: 2}}
	tr.Add(l, 42)
	view := tr.LoadsView()
	if len(view) != m.LinkIDSpace() || view[m.LinkID(l)] != 42 {
		t.Fatalf("LoadsView = len %d", len(view))
	}
	if &view[0] != &tr.loads[0] {
		t.Error("LoadsView copied")
	}
	r := Routing{Topo: m, Flows: []Flow{{Comm: comm.Comm{ID: 0, Src: l.From, Dst: l.To, Rate: 7}, Path: Path{l}}}}
	dst := make([]float64, m.LinkIDSpace())
	dst[0] = 99 // stale: LoadsInto must zero it
	dst = r.LoadsInto(dst)
	if dst[m.LinkID(l)] != 7 || dst[0] != 0 && m.LinkID(l) != 0 {
		t.Errorf("Routing.LoadsInto = %v", dst[m.LinkID(l)])
	}
}

func TestLinksByLoadDescIntoMatchesFresh(t *testing.T) {
	m := mesh.MustNew(5, 5)
	tr := NewLoadTrackerTopo(m)
	for i, l := range m.Links() {
		tr.Add(l, float64((i*7)%13)) // duplicates exercise the id tiebreak
	}
	want := tr.LinksByLoadDesc()
	var buf []mesh.Link
	for round := 0; round < 3; round++ {
		buf = tr.LinksByLoadDescInto(buf)
		if len(buf) != len(want) {
			t.Fatalf("round %d: len %d, want %d", round, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("round %d: order diverged at %d: %v vs %v", round, i, buf[i], want[i])
			}
		}
	}
}
