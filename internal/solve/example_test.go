package solve_test

import (
	"fmt"
	"log"

	"repro/internal/comm"
	_ "repro/internal/experiments" // registers every policy
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// The Section 3.5 example: two same-endpoint communications on a 2×2 mesh
// under the toy model. XY burns 128; the Manhattan heuristics find 56 and
// the unrestricted multi-path optimum is 32.
func Example() {
	in := solve.Instance{
		Mesh:  mesh.MustNew(2, 2),
		Model: power.Figure2(),
		Comms: comm.Set{
			{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1},
			{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 3},
		},
	}
	for _, policy := range []string{"XY", "PR", "MAXMP"} {
		r, err := solve.Route(policy, in, solve.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s %.0f\n", policy, route.Evaluate(r, in.Model).Power.Total())
	}
	// Output:
	// XY    128
	// PR    56
	// MAXMP 32
}

// Two heavy flows between the same cores, routed by name with default
// and with tuned knobs: the README's library snippet.
func ExampleRoute() {
	comms := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 5, V: 6}, Rate: 2800},
		{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 5, V: 6}, Rate: 2400},
	}
	in := solve.Instance{Mesh: mesh.MustNew(8, 8), Model: power.KimHorowitz(), Comms: comms}
	r, err := solve.Route("PR", in, solve.Options{}) // default knobs
	if err != nil {
		log.Fatal(err)
	}
	res := route.Evaluate(r, in.Model)
	fmt.Printf("PR feasible=%v %.1f mW\n", res.Feasible, res.Power.Total())
	r, err = solve.Route("SA", in, solve.Options{Seed: 42}) // tuned knobs
	if err != nil {
		log.Fatal(err)
	}
	res = route.Evaluate(r, in.Model)
	fmt.Printf("SA feasible=%v %.1f mW\n", res.Feasible, res.Power.Total())
	// Output:
	// PR feasible=true 2991.7 mW
	// SA feasible=true 2991.7 mW
}

// The paper's BEST keeps the cheapest feasible heuristic routing.
func ExampleRoute_best() {
	comms := comm.Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 5, V: 5}, Rate: 3000},
		{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 5, V: 5}, Rate: 3000},
	}
	in := solve.Instance{Mesh: mesh.MustNew(8, 8), Model: power.KimHorowitz(), Comms: comms}
	// XY stacks 6000 Mb/s on shared links and fails; BEST separates the
	// two flows.
	for _, policy := range []string{"XY", "BEST"} {
		r, err := solve.Route(policy, in, solve.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s feasible: %v\n", policy, route.Evaluate(r, in.Model).Feasible)
	}
	// Output:
	// XY feasible: false
	// BEST feasible: true
}
