// Quickstart: route a handful of communications on an 8×8 mesh CMP and
// compare the XY baseline against the paper's best Manhattan heuristics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/comm"
	_ "repro/internal/experiments" // registers every routing policy
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

func main() {
	// Three applications already mapped to cores produce four
	// system-level communications (src core, dst core, Mb/s).
	comms := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 5, V: 6}, Rate: 2800},
		{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 5, V: 6}, Rate: 2400},
		{ID: 3, Src: mesh.Coord{U: 2, V: 7}, Dst: mesh.Coord{U: 7, V: 2}, Rate: 1500},
		{ID: 4, Src: mesh.Coord{U: 8, V: 1}, Dst: mesh.Coord{U: 3, V: 4}, Rate: 900},
	}
	in := solve.Instance{Mesh: mesh.MustNew(8, 8), Model: power.KimHorowitz(), Comms: comms}
	if err := in.Validate(); err != nil {
		log.Fatal(err)
	}

	// Every policy family is one registry name away. XY stacks both heavy
	// flows on one corridor and fails; Manhattan routing spreads them;
	// the multi-path rules split the heavy flows.
	fmt.Println("registered policies:", strings.Join(solve.Policies(), ", "))
	fmt.Println("policy   power (mW)   active links   max link load (Mb/s)")
	for _, policy := range []string{"XY", "XYI", "PR", "BEST", "2MP", "MAXMP"} {
		r, err := solve.Route(policy, in, solve.Options{})
		if err != nil {
			log.Fatal(err)
		}
		res := route.Evaluate(r, in.Model)
		if !res.Feasible {
			fmt.Printf("%-6s   infeasible   -              %.0f\n", policy, res.MaxLoad())
			continue
		}
		fmt.Printf("%-6s   %10.1f   %12d   %.0f\n", policy, res.Power.Total(), res.Power.ActiveLinks, res.MaxLoad())
	}

	// Inspect the winning paths.
	r, err := solve.Route("BEST", in, solve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("routed paths (one per communication, single-path rule):")
	for _, f := range r.Flows {
		src, _ := f.Path.Src()
		dst, _ := f.Path.Dst()
		fmt.Printf("  γ%d: %v -> %v in %d hops, %d bend(s)\n",
			f.Comm.ID, src, dst, len(f.Path), f.Path.Bends())
	}
}
