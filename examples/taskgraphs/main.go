// Taskgraphs: the system-level scenario of the paper's introduction —
// several parallel applications, each already mapped onto mesh cores,
// produce a mixed communication workload that the system routes as one
// set. A streaming pipeline, a 2-D stencil solver, a corner-turn
// (transpose) kernel and memory-controller hotspot traffic share an 8×8
// CMP; the example compares every routing policy on the union.
//
//	go run ./examples/taskgraphs
package main

import (
	"fmt"
	"log"
	"slices"
	"sort"

	"repro/internal/comm"
	"repro/internal/experiments"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

func main() {
	m := mesh.MustNew(8, 8)

	// Application 1: an 8-stage video pipeline snaking from the NW corner,
	// 1.5 Gb/s between stages.
	set, err := workload.Pipeline(m, nil, mesh.Coord{U: 1, V: 1}, 8, 1500)
	if err != nil {
		log.Fatal(err)
	}

	// Application 2: a 4×4 stencil solver in the SE quadrant exchanging
	// 500 Mb/s halos with its neighbors.
	set, err = workload.Stencil(m, set, mesh.Box{UMin: 5, UMax: 8, VMin: 5, VMax: 8}, 500)
	if err != nil {
		log.Fatal(err)
	}

	// Application 3: a 4×4 corner-turn in the SW quadrant, 1.1 Gb/s —
	// adversarial for XY routing (every flow bends at the block diagonal).
	set, err = workload.Transpose(m, set, mesh.Box{UMin: 5, UMax: 8, VMin: 1, VMax: 4}, 1100)
	if err != nil {
		log.Fatal(err)
	}

	// Memory traffic: the NE quadrant streams 1.1 Gb/s per core to the
	// memory controller at C(1,8).
	set, err = workload.Hotspot(m, set, []mesh.Coord{
		{U: 3, V: 5}, {U: 4, V: 6}, {U: 2, V: 6}, {U: 4, V: 8},
	}, mesh.Coord{U: 1, V: 8}, 1100)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("composite workload: %d communications, %.1f Gb/s aggregate demand\n\n",
		len(set), set.TotalRate()/1000)

	type row struct {
		name  string
		ok    bool
		power float64
	}
	var rows []row
	// The paper's heuristics and BEST, and beyond them any registered
	// policy is one name away: compare the annealing and multi-path
	// extensions on the same workload.
	for _, name := range slices.Concat(experiments.HeuristicNames, []string{"SA", "2MP", "4MP", "MAXMP"}) {
		res := evaluate(m, set, name)
		rows = append(rows, row{name, res.Feasible, res.Power.Total()})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ok != rows[j].ok {
			return rows[i].ok
		}
		return rows[i].power < rows[j].power
	})
	fmt.Println("policy   feasible   power (mW)")
	fmt.Println("------   --------   ----------")
	for _, r := range rows {
		if r.ok {
			fmt.Printf("%-6s   yes        %10.1f\n", r.name, r.power)
		} else {
			fmt.Printf("%-6s   NO                 -\n", r.name)
		}
	}

	// The transpose block alone shows the XY pathology clearly.
	transposeOnly, err := workload.Transpose(m, nil, mesh.Box{UMin: 1, UMax: 6, VMin: 1, VMax: 6}, 1700)
	if err != nil {
		log.Fatal(err)
	}
	demoXYPathology(m, transposeOnly)
}

// evaluate routes the set on m with the named policy under the paper's
// power model and evaluates the routing.
func evaluate(m *mesh.Mesh, set comm.Set, policy string) route.Result {
	in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set}
	r, err := solve.Route(policy, in, solve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return route.Evaluate(r, in.Model)
}

func demoXYPathology(m *mesh.Mesh, set comm.Set) {
	xy, best := evaluate(m, set, "XY"), evaluate(m, set, "BEST")
	fmt.Printf("\n6×6 corner-turn at 1.7 Gb/s: XY max link load %.0f Mb/s (feasible=%v), "+
		"BEST max load %.0f Mb/s (feasible=%v)\n",
		xy.MaxLoad(), xy.Feasible, best.MaxLoad(), best.Feasible)
}
