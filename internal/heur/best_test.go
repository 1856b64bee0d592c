package heur

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// fixedHeur always returns the same routing — a candidate whose paths the
// nested-BEST test can pin exactly.
type fixedHeur struct{ r route.Routing }

func (fixedHeur) Name() string { return "FIXED" }

func (f fixedHeur) Route(solve.Instance, solve.Options) (route.Routing, error) { return f.r, nil }

// A candidate that leads the outer BEST must survive a later candidate
// that runs a nested BEST on the same workspace (SA seeds itself with
// BEST{TB,XYI,PR}): the leader snapshots live per nesting depth, so the
// inner BEST must not clobber the outer leader's paths.
func TestBestNestedOnSharedWorkspace(t *testing.T) {
	m := mesh.MustNew(3, 3)
	c := comm.Comm{ID: 0, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 500}
	in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: comm.Set{c}}
	xy := route.XY(c.Src, c.Dst) // (1,1)->(1,2)->(2,2)
	fixed := fixedHeur{r: route.Routing{Topo: m, Flows: []route.Flow{{Comm: c, Path: xy}}}}

	ws := route.NewWorkspace()
	r, err := bestOf("BEST", []solve.Solver{fixed, SA{}}, in, solve.Options{Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	// Both candidates route the single communication at identical power
	// (any shortest path over empty loads costs the same), so the first
	// candidate stays the leader and its exact path must come back.
	if len(r.Flows) != 1 {
		t.Fatalf("got %d flows, want 1", len(r.Flows))
	}
	if got := pathKey(r.Flows[0].Path); got != pathKey(xy) {
		t.Fatalf("nested BEST clobbered the outer leader: got %s, want %s",
			got, pathKey(xy))
	}
}
