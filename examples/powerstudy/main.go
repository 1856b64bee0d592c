// Powerstudy: explores the static/dynamic power trade-off the paper
// highlights in Section 4.1 — load-balancing over many links pays off when
// dynamic power dominates, while a large leakage (Pleak) rewards packing
// communications onto few links. The example sweeps the Pleak/P0 ratio and
// the exponent α on a fixed workload and reports which policy wins, plus
// the discrete-vs-continuous frequency gap.
//
//	go run ./examples/powerstudy
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	_ "repro/internal/experiments" // registers every routing policy
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

func main() {
	m := mesh.MustNew(8, 8)
	set := workload.New(m, 11).Uniform(30, 100, 1500)

	fmt.Println("Sweep 1: leakage share (P0=5.41, α=2.95, continuous frequencies)")
	fmt.Println("Pleak(mW)   XY power    PR power    TB power    winner      active links (PR)")
	for _, pleak := range []float64{0, 5, 17, 50, 150, 500} {
		model := power.Model{Pleak: pleak, P0: 5.41, Alpha: 2.95, MaxBW: 3500, FreqUnit: 1000}
		reportRow(m, set, model, fmt.Sprintf("%9.0f", pleak))
	}

	fmt.Println()
	fmt.Println("Sweep 2: dynamic exponent α (Pleak=16.9, continuous)")
	fmt.Println("alpha       XY power    PR power    TB power    winner      active links (PR)")
	for _, alpha := range []float64{2.1, 2.5, 2.95, 3.0} {
		model := power.Model{Pleak: 16.9, P0: 5.41, Alpha: alpha, MaxBW: 3500, FreqUnit: 1000}
		reportRow(m, set, model, fmt.Sprintf("%9.2f", alpha))
	}

	fmt.Println()
	fmt.Println("Sweep 3: discrete {1, 2.5, 3.5} Gb/s versus continuous scaling")
	for _, tc := range []struct {
		name  string
		model power.Model
	}{
		{"discrete  ", power.KimHorowitz()},
		{"continuous", power.KimHorowitzContinuous()},
	} {
		res := evaluate(m, set, tc.model, "BEST")
		fmt.Printf("  %s BEST: %8.1f mW (static %6.1f, dynamic %7.1f)\n",
			tc.name, res.Power.Total(), res.Power.Static, res.Power.Dynamic)
	}
	fmt.Println("\nThe discrete model pays for frequency headroom: every load is")
	fmt.Println("rounded up to the next available link rate, so discrete BEST")
	fmt.Println("dissipates more than the continuous ideal on the same routing.")
}

// evaluate routes the set on m with the named policy and evaluates the
// routing under model.
func evaluate(m *mesh.Mesh, set comm.Set, model power.Model, policy string) route.Result {
	in := solve.Instance{Mesh: m, Model: model, Comms: set}
	if err := in.Validate(); err != nil {
		log.Fatal(err)
	}
	r, err := solve.Route(policy, in, solve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return route.Evaluate(r, model)
}

func reportRow(m *mesh.Mesh, set comm.Set, model power.Model, label string) {
	type res struct {
		ok    bool
		power float64
		links int
	}
	results := make(map[string]res)
	for _, policy := range []string{"XY", "PR", "TB"} {
		r := evaluate(m, set, model, policy)
		results[policy] = res{r.Feasible, r.Power.Total(), r.Power.ActiveLinks}
	}
	winner, bestPower := "-", 0.0
	for _, policy := range []string{"XY", "PR", "TB"} {
		if r := results[policy]; r.ok && (winner == "-" || r.power < bestPower) {
			winner, bestPower = policy, r.power
		}
	}
	cell := func(policy string) string {
		r := results[policy]
		if !r.ok {
			return "    fail  "
		}
		return fmt.Sprintf("%10.1f", r.power)
	}
	fmt.Printf("%s  %s  %s  %s   %-9s   %d\n",
		label, cell("XY"), cell("PR"), cell("TB"), winner, results["PR"].links)
}
