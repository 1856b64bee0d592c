// Command manroute routes a random communication workload on a mesh CMP
// with a chosen policy and reports power, feasibility and (optionally) the
// routed paths.
//
// Usage:
//
//	manroute -p 8 -q 8 -n 40 -wmin 100 -wmax 1500 -policy PR -seed 1 -paths
//	manroute -policy all            # compare every policy on one instance
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/comm"
	"repro/internal/deadlock"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/rtable"
	"repro/internal/solve"
	"repro/internal/tables"
	"repro/internal/workload"
)

// patternByName resolves a permutation pattern name.
func patternByName(name string) (workload.Pattern, error) {
	for _, p := range workload.Patterns() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown pattern %q (try bit-complement, bit-reverse, shuffle, tornado, neighbor)", name)
}

func main() {
	var (
		p       = flag.Int("p", 8, "mesh rows")
		q       = flag.Int("q", 8, "mesh columns")
		n       = flag.Int("n", 40, "number of communications")
		wmin    = flag.Float64("wmin", 100, "minimum weight (Mb/s)")
		wmax    = flag.Float64("wmax", 1500, "maximum weight (Mb/s)")
		length  = flag.Int("length", 0, "exact Manhattan length (0 = random pairs)")
		seed    = flag.Int64("seed", 1, "workload seed")
		policy  = flag.String("policy", "BEST", "routing policy ("+strings.Join(solve.Policies(), ", ")+") or 'all'")
		cont    = flag.Bool("continuous", false, "use continuous frequency scaling")
		paths   = flag.Bool("paths", false, "print the routed paths")
		heat    = flag.Bool("heatmap", false, "print an ASCII link-load heatmap")
		save    = flag.String("save", "", "write the generated workload to this JSON file")
		load    = flag.String("load", "", "load the workload from this JSON file instead of generating")
		pattern = flag.String("pattern", "", "use a permutation pattern workload: bit-complement, bit-reverse, shuffle, tornado, neighbor")
		tablesF = flag.String("tables", "", "write per-router forwarding tables to this JSON file")
		dl      = flag.Bool("deadlock", false, "analyze the routing's channel dependency graph and escape channels")
	)
	flag.Parse()
	if err := run(*p, *q, *n, *wmin, *wmax, *length, *seed, *policy, *cont, *paths, *heat,
		*save, *load, *pattern, *tablesF, *dl); err != nil {
		fmt.Fprintln(os.Stderr, "manroute:", err)
		os.Exit(1)
	}
}

func run(p, q, n int, wmin, wmax float64, length int, seed int64, policy string,
	cont, printPaths, heat bool, save, load, pattern, tablesF string, dl bool) error {

	m, err := mesh.New(p, q)
	if err != nil {
		return err
	}
	var set comm.Set
	switch {
	case load != "":
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		defer f.Close()
		m, set, err = comm.ReadJSON(f)
		if err != nil {
			return err
		}
		p, q = m.P(), m.Q()
	case pattern != "":
		pt, err := patternByName(pattern)
		if err != nil {
			return err
		}
		set, err = workload.Permutation(m, nil, pt, (wmin+wmax)/2)
		if err != nil {
			return err
		}
	default:
		gen := workload.New(m, seed)
		set = gen.Uniform(n, wmin, wmax)
		if length > 0 {
			set = gen.TargetLength(n, wmin, wmax, length)
		}
	}
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := comm.WriteJSON(f, m, set); err != nil {
			return err
		}
	}
	model := power.KimHorowitz()
	if cont {
		model = power.KimHorowitzContinuous()
	}
	in := solve.Instance{Mesh: m, Model: model, Comms: set}
	if err := in.Validate(); err != nil {
		return err
	}

	if strings.EqualFold(policy, "all") {
		// Every constructive heuristic plus BEST, in name order.
		names := slices.Sorted(slices.Values(experiments.HeuristicNames))
		results := make([]route.Result, len(names))
		for i, name := range names {
			if _, results[i], err = routeWith(in, name); err != nil {
				return err
			}
		}
		for i, name := range names {
			printReport(os.Stdout, in, name, results[i])
		}
		return nil
	}

	r, res, err := routeWith(in, policy)
	if err != nil {
		return err
	}
	printReport(os.Stdout, in, strings.ToUpper(policy), res) // canonical names are upper case
	if heat {
		fmt.Print(tables.Heatmap(m, res.Loads, model.MaxBW))
	}
	if dl {
		g := deadlock.BuildCDG(r)
		if cyc := g.FindCycle(); cyc != nil {
			fmt.Printf("channel dependency graph: CYCLIC — wormhole deadlock possible without avoidance\n  cycle: %s\n",
				g.DescribeCycle(cyc))
		} else {
			fmt.Println("channel dependency graph: acyclic — deadlock-free as-is")
		}
		assign := deadlock.EscapeChannels(r)
		if err := assign.Validate(r); err != nil {
			return fmt.Errorf("escape-channel assignment failed: %w", err)
		}
		if eg := deadlock.EscapeCDG(r, assign); eg.Acyclic() {
			fmt.Println("escape-channel assignment: valid, escape sub-network acyclic (Duato) — certified deadlock-free with 2 VCs")
		}
	}
	if tablesF != "" {
		tbl, err := rtable.Build(r)
		if err != nil {
			return err
		}
		if err := tbl.Verify(r); err != nil {
			return err
		}
		f, err := os.Create(tablesF)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tbl.WriteJSON(f); err != nil {
			return err
		}
		st := tbl.Stats()
		fmt.Printf("forwarding tables: %d routers, %d entries (max %d per router) -> %s\n",
			st.Routers, st.Entries, st.MaxEntries, tablesF)
	}
	if printPaths {
		byComm := make(map[int][]route.Path)
		for _, f := range r.Flows {
			byComm[f.Comm.ID] = append(byComm[f.Comm.ID], f.Path)
		}
		ids := make([]int, 0, len(byComm))
		for id := range byComm {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			for _, path := range byComm[id] {
				hops := make([]string, 0, len(path)+1)
				if src, ok := path.Src(); ok {
					hops = append(hops, src.String())
				}
				for _, l := range path {
					hops = append(hops, l.To.String())
				}
				fmt.Printf("  comm %3d: %s\n", id, strings.Join(hops, " -> "))
			}
		}
	}
	return nil
}

// routeWith routes the instance with the named policy under default
// options and evaluates the routing.
func routeWith(in solve.Instance, policy string) (route.Routing, route.Result, error) {
	r, err := solve.Route(policy, in, solve.Options{})
	if err != nil {
		return route.Routing{}, route.Result{}, err
	}
	return r, route.Evaluate(r, in.Model), nil
}

// printReport writes a routed instance's power summary, or why it is
// infeasible.
func printReport(w io.Writer, in solve.Instance, policy string, res route.Result) {
	fmt.Fprintf(w, "policy %s on %v, %d communications\n", policy, in.Mesh, len(in.Comms))
	if !res.Feasible {
		fmt.Fprintf(w, "  INFEASIBLE: %v (max load %.1f, top bandwidth %.1f)\n",
			res.Err, res.MaxLoad(), in.Model.MaxBW)
		return
	}
	fmt.Fprintf(w, "  power: %.3f mW (static %.3f + dynamic %.3f), %d active links\n",
		res.Power.Total(), res.Power.Static, res.Power.Dynamic, res.Power.ActiveLinks)
	fmt.Fprintf(w, "  max link load: %.1f / %.1f Mb/s\n", res.MaxLoad(), in.Model.MaxBW)
	fmt.Fprintf(w, "  ideal-share lower bound: %.3f mW (dynamic only)\n",
		exact.IdealShareLowerBound(in.Mesh, in.Model, in.Comms))
}
