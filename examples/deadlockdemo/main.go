// Deadlockdemo: why the paper assumes a deadlock-avoidance mechanism.
// Manhattan routings regularly create cyclic channel dependencies; this
// example routes shuffle traffic with PR, exhibits the cycle, certifies
// the routing deadlock-free via a Duato escape-channel assignment, and
// shows with the discrete-event simulator that tiny buffers throttle a
// hand-built cyclic workload while dependency-free XY traffic flows.
//
//	go run ./examples/deadlockdemo
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	"repro/internal/deadlock"
	_ "repro/internal/experiments" // registers every routing policy
	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

func main() {
	m := mesh.MustNew(8, 8)

	// 1. A realistic routing with cyclic channel dependencies.
	set, err := workload.Permutation(m, nil, workload.Shuffle, 900)
	if err != nil {
		log.Fatal(err)
	}
	in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set}
	pr, err := solve.Route("PR", in, solve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res := route.Evaluate(pr, in.Model)
	fmt.Printf("PR on shuffle traffic: feasible=%v, power %.0f mW\n", res.Feasible, res.Power.Total())

	g := deadlock.BuildCDG(pr)
	if cyc := g.FindCycle(); cyc != nil {
		fmt.Println("channel dependency cycle found:")
		fmt.Println(" ", g.DescribeCycle(cyc))
	} else {
		fmt.Println("(this seeding produced an acyclic CDG)")
	}

	// 2. Certify it anyway: two virtual channels with an XY-restricted
	// escape class make any minimal routing deadlock-free.
	assign := deadlock.EscapeChannels(pr)
	if err := assign.Validate(pr); err != nil {
		log.Fatal(err)
	}
	if eg := deadlock.EscapeCDG(pr, assign); eg.Acyclic() {
		fmt.Println("escape-channel assignment valid; escape sub-network acyclic:")
		fmt.Println("  certified deadlock-free with 2 virtual channels (Duato)")
	}

	// 3. Feel the hazard dynamically: a hand-built 4-flow buffer cycle
	// around one square of the mesh, simulated with 1-packet buffers.
	corners := []mesh.Coord{{U: 4, V: 4}, {U: 4, V: 5}, {U: 5, V: 5}, {U: 5, V: 4}}
	link := func(i int) mesh.Link {
		return mesh.Link{From: corners[i%4], To: corners[(i+1)%4]}
	}
	var flows []route.Flow
	for f := 0; f < 4; f++ {
		flows = append(flows, route.Flow{
			Comm: comm.Comm{ID: f + 1, Src: corners[f], Dst: corners[(f+3)%4], Rate: 1150},
			Path: route.Path{link(f), link(f + 1), link(f + 2)},
		})
	}
	ring := route.Routing{Topo: m, Flows: flows}
	fmt.Printf("\nhand-built ring (4 flows × 3 hops, 3.45 Gb/s per link), CDG cyclic: %v\n",
		!deadlock.BuildCDG(ring).Acyclic())
	run := func(buffers int, withVCs bool) {
		sim, err := noc.New(ring, power.KimHorowitz(), noc.Config{
			Horizon: 3000, Warmup: 0, BufferPackets: buffers,
		})
		if err != nil {
			log.Fatal(err)
		}
		desc := "unbounded buffers"
		if buffers > 0 {
			desc = fmt.Sprintf("%d-packet buffers", buffers)
		}
		if withVCs {
			// Non-minimal ring paths cannot use the Manhattan escape
			// assignment; a hand schedule splitting the square's links
			// between the two VCs breaks the buffer cycle instead.
			classes := [][]int{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {1, 1, 1}}
			if err := sim.AssignClasses(classes); err != nil {
				log.Fatal(err)
			}
			desc += " + 2 VCs"
		}
		st := sim.Run()
		total := 0.0
		for id := 1; id <= 4; id++ {
			total += st.DeliveredRate(id)
		}
		fmt.Printf("  %-24s: delivered %5.0f of 4600 Mb/s, %d packets frozen\n",
			desc, total, st.Stalled)
	}
	run(0, false)
	run(1, false)
	run(1, true)
	fmt.Println("\ncyclic dependencies + finite buffers = deadlock; virtual")
	fmt.Println("channels (or XY's acyclic ordering) are what keep the paper's")
	fmt.Println("Manhattan routings safe in real silicon.")
}
