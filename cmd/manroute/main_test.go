package main

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/solve"
)

func TestReportContents(t *testing.T) {
	report := func(rate float64, policy string) string {
		in := solve.Instance{Mesh: mesh.MustNew(2, 2), Model: power.Figure2(), Comms: comm.Set{
			{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: rate},
		}}
		_, res, err := routeWith(in, policy)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		printReport(&b, in, policy, res)
		return b.String()
	}
	rep := report(1, "PR")
	for _, want := range []string{"policy PR", "power", "active links", "lower bound"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if rep := report(100, "XY"); !strings.Contains(rep, "INFEASIBLE") {
		t.Errorf("infeasible report lacks marker:\n%s", rep)
	}
}
