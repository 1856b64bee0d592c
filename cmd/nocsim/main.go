// Command nocsim routes a workload and replays it in the discrete-event
// network-on-chip simulator, reporting per-communication goodput and
// latency alongside the analytic power figures and the per-component
// (router / link / buffer) energy breakdown.
//
// Usage:
//
//	nocsim -n 15 -seed 3 -policy PR -horizon 3000
//	nocsim -topology torus:8x8 -policy TABLE -n 15
//	nocsim -topology circulant:27:1,3,9 -policy TABLE -n 10
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/topo"
	"repro/internal/workload"

	// Register every routing policy and the non-mesh topology families.
	_ "repro/internal/experiments"
	_ "repro/internal/topo/circulant"
	_ "repro/internal/topo/torus"
)

func main() {
	var (
		p        = flag.Int("p", 8, "mesh rows")
		q        = flag.Int("q", 8, "mesh columns")
		topology = flag.String("topology", "", "non-mesh platform spec (e.g. torus:8x8, circulant:27:1,3,9); overrides -p/-q")
		n        = flag.Int("n", 15, "number of communications")
		wmin     = flag.Float64("wmin", 100, "minimum weight (Mb/s)")
		wmax     = flag.Float64("wmax", 1200, "maximum weight (Mb/s)")
		seed     = flag.Int64("seed", 1, "workload seed")
		policy   = flag.String("policy", "PR", "routing policy ("+strings.Join(solve.Policies(), ", ")+")")
		horizon  = flag.Float64("horizon", 3000, "simulated µs")
		warmup   = flag.Float64("warmup", 500, "warmup µs excluded from stats")
		packet   = flag.Float64("packet", 2048, "packet size in bits")
		cut      = flag.Bool("cutthrough", false, "use cut-through switching instead of store-and-forward")
		buffers  = flag.Int("buffers", 0, "per-link transit buffer in packets (0 = unbounded)")
		routerPJ = flag.Float64("router-pj", 0, "router energy per bit in pJ (0 = default)")
		bufferPJ = flag.Float64("buffer-pj", 0, "buffer energy per bit in pJ (0 = default)")
		trace    = flag.String("trace", "", "write a per-packet CSV trace to this file")
	)
	flag.Parse()
	cfg := noc.Config{
		Horizon: *horizon, Warmup: *warmup, PacketBits: *packet,
		BufferPackets: *buffers, RouterPJPerBit: *routerPJ, BufferPJPerBit: *bufferPJ,
	}
	if *cut {
		cfg.Switching = noc.CutThrough
	}
	if err := run(*p, *q, *topology, *n, *wmin, *wmax, *seed, *policy, cfg, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}

// solveOn routes the workload on the selected platform and returns the
// routing with its analytic evaluation.
func solveOn(p, q int, topology string, n int, wmin, wmax float64, seed int64, policy string) (route.Routing, route.Result, power.Model, error) {
	model := power.KimHorowitz()
	var tp topo.Topology
	var err error
	if topology != "" {
		tp, err = topo.Parse(topology)
	} else {
		tp, err = mesh.New(p, q)
	}
	if err != nil {
		return route.Routing{}, route.Result{}, model, err
	}
	if err := solve.CheckTopology([]string{policy}, tp); err != nil {
		return route.Routing{}, route.Result{}, model, err
	}
	in := solve.Instance{Topo: tp, Model: model,
		Comms: workload.New(tp.Carrier(), seed).Uniform(n, wmin, wmax)}
	if err := in.Validate(); err != nil {
		return route.Routing{}, route.Result{}, model, err
	}
	s, err := solve.Lookup(policy)
	if err != nil {
		return route.Routing{}, route.Result{}, model, err
	}
	r, err := s.Route(in, solve.Options{})
	if err != nil {
		return route.Routing{}, route.Result{}, model, err
	}
	return r, route.Evaluate(r, model), model, nil
}

func run(p, q int, topology string, n int, wmin, wmax float64, seed int64, policy string, cfg noc.Config, trace string) error {
	r, res, model, err := solveOn(p, q, topology, n, wmin, wmax, seed, policy)
	if err != nil {
		return err
	}
	platform := r.Topo.Spec()
	fmt.Printf("policy %s on %s, %d communications\n", strings.ToUpper(policy), platform, n)
	if !res.Feasible {
		return fmt.Errorf("routing infeasible; nothing to simulate (try another seed or policy)")
	}
	fmt.Printf("  analytic power: %.3f mW (static %.3f + dynamic %.3f), %d active links\n",
		res.Power.Total(), res.Power.Static, res.Power.Dynamic, res.Power.ActiveLinks)

	sim, err := noc.New(r, model, cfg)
	if err != nil {
		return err
	}
	var tracer *noc.Tracer
	if trace != "" {
		tracer = &noc.Tracer{}
		sim.Trace(tracer)
	}
	st := sim.Run()
	fmt.Println()
	fmt.Print(st.Summary())
	fmt.Printf("\nswitching %v, analytic power %.3f mW vs simulated %.3f mW; "+
		"mean active-link utilization %.3f\n",
		cfg.Switching, res.Power.Total(), st.PowerMW, st.MeanUtilization())
	fmt.Printf("horizon accounting: %d injected = %d delivered + %d stalled + %d in flight\n",
		st.Injected, st.Delivered, st.Stalled, st.InFlight)
	printEnergy(st)
	if tracer != nil {
		f, err := os.Create(trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tracer.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("trace: %d events written to %s\n", len(tracer.Events()), trace)
	}
	return nil
}

// printEnergy reports the per-component breakdown and compares the
// activity-based total against the static full-power estimate the
// paper's objective charges.
func printEnergy(st *noc.Stats) {
	e := st.Energy
	fmt.Printf("\nenergy breakdown (activity-based):\n")
	fmt.Printf("  routers: %10.1f nJ  (%.1f%%)\n", e.RouterTotalNJ, 100*e.RouterTotalNJ/e.TotalNJ)
	fmt.Printf("  links:   %10.1f nJ  (%.1f%%)\n", e.LinkTotalNJ, 100*e.LinkTotalNJ/e.TotalNJ)
	fmt.Printf("  buffers: %10.1f nJ  (%.1f%%)\n", e.BufferTotalNJ, 100*e.BufferTotalNJ/e.TotalNJ)
	fmt.Printf("  total:   %10.1f nJ\n", e.TotalNJ)
	fmt.Printf("static link estimate %.1f nJ; activity accounting recovers %.1f%% of link energy\n",
		st.EnergyNJ, 100*(1-e.LinkTotalNJ/st.EnergyNJ))
	// Top energy-consuming routers, a quick hotspot view.
	type hot struct {
		idx int
		nj  float64
	}
	hots := make([]hot, 0, len(e.RouterNJ))
	for i, v := range e.RouterNJ {
		if v > 0 {
			hots = append(hots, hot{i, v})
		}
	}
	sort.Slice(hots, func(a, b int) bool { return hots[a].nj > hots[b].nj })
	if len(hots) > 5 {
		hots = hots[:5]
	}
	if len(hots) > 0 {
		fmt.Printf("hottest routers (core index: nJ):")
		for _, h := range hots {
			fmt.Printf("  %d: %.1f", h.idx, h.nj)
		}
		fmt.Println()
	}
}
