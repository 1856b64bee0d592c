package heur

import (
	"errors"
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/solve"
)

// A stop poll that already fired abandons the anneal on its first stride
// and surfaces the sentinel instead of a routing.
func TestSAStopAbandonsSearch(t *testing.T) {
	m := mesh.MustNew(8, 8)
	set := randomSet(m, 42, 25, 100, 2000)
	in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set}
	_, err := SA{}.Route(in, solve.Options{Seed: 3, SAIters: 100000, Stop: func() bool { return true }})
	if !errors.Is(err, solve.ErrStopped) {
		t.Fatalf("err = %v, want solve.ErrStopped", err)
	}
}

// Installing a stop hook that never fires touches no RNG state: the
// routing is identical to a run without one — the guarantee that lets
// the serving layer thread deadlines through every solve for free.
func TestSAStopNeverFiringChangesNothing(t *testing.T) {
	m := mesh.MustNew(8, 8)
	set := randomSet(m, 5, 20, 100, 2000)
	in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set}
	a, err := SA{}.Route(in, solve.Options{Seed: 3, SAIters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SA{}.Route(in, solve.Options{Seed: 3, SAIters: 1000, Stop: func() bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Flows {
		if pathKey(a.Flows[i].Path) != pathKey(b.Flows[i].Path) {
			t.Fatal("a never-firing stop hook changed the routing")
		}
	}
}
