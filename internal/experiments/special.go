package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/exact"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/multipath"
	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/solve"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/workload"
)

// Figure2Powers reproduces the routing-rule comparison of Figure 2 /
// Section 3.5 exactly: the XY routing (128), the optimal single-path
// Manhattan routing (56, via the exact solver), and the paper's 2-MP
// routing with γ2 split 1+2 (32).
func Figure2Powers() (pxy, p1mp, p2mp float64, err error) {
	m := mesh.MustNew(2, 2)
	model := power.Figure2()
	g1 := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1}
	g2 := comm.Comm{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 3}
	set := comm.Set{g1, g2}

	xy, err := heur.XY{}.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	pxy = route.Evaluate(xy, model).Power.Total()

	opt, ok, err := exact.Solve(m, model, set)
	if err != nil {
		return 0, 0, 0, err
	}
	if !ok {
		return 0, 0, 0, fmt.Errorf("experiments: Figure 2 instance infeasible under 1-MP")
	}
	p1mp = route.Evaluate(opt, model).Power.Total()

	parts, err := g2.Split([]float64{1, 2})
	if err != nil {
		return 0, 0, 0, err
	}
	twoMP := route.Routing{Topo: m, Flows: []route.Flow{
		{Comm: g1, Path: route.XY(g1.Src, g1.Dst)},
		{Comm: parts[0], Path: route.XY(g2.Src, g2.Dst)},
		{Comm: parts[1], Path: route.YX(g2.Src, g2.Dst)},
	}}
	if err := twoMP.Validate(set, 2); err != nil {
		return 0, 0, 0, err
	}
	p2mp = route.Evaluate(twoMP, model).Power.Total()
	return pxy, p1mp, p2mp, nil
}

// Summary reproduces the §6.4 aggregate statistics over the union of the
// Figure 7–9 instance families.
type Summary struct {
	Instances int
	// Names is the evaluated policy list plus the trailing derived BEST —
	// the row order of Table. Defaults to HeuristicNames.
	Names []string
	// Ref is the policy the inverse-power gains are normalized against
	// ("XY" whenever it is in the line-up).
	Ref string
	// Success maps heuristic name to its fraction of instances solved
	// (paper: XY 15%, XYI 46%, PR 50%, BEST 51%).
	Success map[string]float64
	// InvPowerGainVsXY is mean(1/P_h)/mean(1/P_ref), failures counting 0
	// (paper, with ref XY: XYI 2.44, PR 2.57, BEST 2.95).
	InvPowerGainVsXY map[string]float64
	// StaticFraction is the mean static/total power share of the BEST
	// routing over solved instances (paper: ≈ 1/7).
	StaticFraction float64
	// MeanSolveTime is the mean per-instance runtime of each heuristic
	// (paper: 24 ms XYI, 38 ms PR on 2011 hardware).
	MeanSolveTime map[string]time.Duration
}

// RunSummary draws trialsPerPoint instances per point of every canned
// Figure 7–9 spec and accumulates the §6.4 statistics over a policy list
// (nil means ConstructiveNames): every listed policy on every instance,
// BEST derived as the best feasible of the list (a literal "BEST" entry
// is absorbed into the derived row, so any -policies list the figure
// sweeps accept works here too). Gains are normalized against XY when
// listed, else against the first policy.
func RunSummary(trialsPerPoint int, seed int64, policies []string) (Summary, error) {
	if trialsPerPoint <= 0 {
		trialsPerPoint = 10
	}
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	solvers, names, err := lookup(dropBest(policies))
	if err != nil {
		return Summary{}, err
	}
	names = append(names, "BEST")
	ref := names[0]
	for _, n := range names[:len(names)-1] {
		if n == "XY" {
			ref = "XY"
			break
		}
	}

	type task struct {
		w    scenario.Params
		seed int64
	}
	var tasks []task
	specs := Specs()
	for _, id := range figureIDs {
		sp := specs[id]
		for _, x := range sp.XValues() {
			w := sp.At(x)
			for tr := 0; tr < trialsPerPoint; tr++ {
				tasks = append(tasks, task{w, seed*7_919 + int64(len(tasks))})
			}
		}
	}

	type outcome struct {
		perHeur []instanceOutcome
		times   []time.Duration
	}
	outs := make([]outcome, len(tasks))
	type sumScratch struct {
		gen   *workload.Generator
		set   comm.Set
		loads *route.LoadTracker
		ws    *route.Workspace
	}
	newScratch := func(int) *sumScratch {
		return &sumScratch{gen: workload.New(m, 0), loads: route.NewLoadTrackerTopo(m), ws: route.NewWorkspace()}
	}
	// The flat task list runs on the sweeps' worker pool as a single
	// point's trial range: persistent per-worker scratch, chunks taken in
	// index order — and the pool's first-error handling stops dispatch on
	// a draw failure.
	workers := runtime.GOMAXPROCS(0)
	chunks, _ := appendChunks(nil, 0, len(tasks), chunkTrials(len(tasks), workers))
	err = par.Run(len(chunks), workers, nil, newScratch, func(s *sumScratch, ci int) error {
		c := chunks[ci]
		for ti := c.lo; ti < c.hi; ti++ {
			set, err := scenario.DrawRandom(s.gen, tasks[ti].seed, tasks[ti].w, s.set)
			if err != nil {
				return err
			}
			s.set = set
			in := solve.Instance{Mesh: m, Model: model, Comms: set}
			o := outcome{perHeur: make([]instanceOutcome, len(solvers)), times: make([]time.Duration, len(solvers))}
			for hi, sv := range solvers {
				start := time.Now()
				r, err := sv.Route(in, solve.Options{Workspace: s.ws})
				o.times[hi] = time.Since(start)
				if err != nil {
					continue
				}
				s.loads.SetRouting(r)
				bd, ok := s.loads.Evaluate(model)
				o.perHeur[hi] = instanceOutcome{feasible: ok, pow: bd.Total(), static: bd.Static}
			}
			outs[ti] = o
		}
		return nil
	})
	if err != nil {
		return Summary{}, err
	}

	success := make(map[string]*stats.Ratio)
	invPower := make(map[string]*stats.Accumulator)
	times := make(map[string]*stats.Accumulator)
	for _, name := range names {
		success[name] = &stats.Ratio{}
		invPower[name] = &stats.Accumulator{}
		times[name] = &stats.Accumulator{}
	}
	var staticFrac stats.Accumulator

	for _, o := range outs {
		bestPow, bestStatic := -1.0, 0.0
		for hi, r := range o.perHeur {
			name := names[hi]
			success[name].Add(r.feasible)
			inv := 0.0
			if r.feasible {
				inv = 1 / r.pow
				if bestPow < 0 || r.pow < bestPow {
					bestPow, bestStatic = r.pow, r.static
				}
			}
			invPower[name].Add(inv)
			times[name].Add(float64(o.times[hi]))
		}
		success["BEST"].Add(bestPow > 0)
		if bestPow > 0 {
			invPower["BEST"].Add(1 / bestPow)
			staticFrac.Add(bestStatic / bestPow)
		} else {
			invPower["BEST"].Add(0)
		}
	}

	s := Summary{
		Instances:        len(tasks),
		Names:            names,
		Ref:              ref,
		Success:          make(map[string]float64),
		InvPowerGainVsXY: make(map[string]float64),
		MeanSolveTime:    make(map[string]time.Duration),
		StaticFraction:   staticFrac.Mean(),
	}
	refInv := invPower[ref].Mean()
	for _, name := range names {
		s.Success[name] = success[name].Value()
		if refInv > 0 {
			s.InvPowerGainVsXY[name] = invPower[name].Mean() / refInv
		}
		if name != "BEST" {
			s.MeanSolveTime[name] = time.Duration(times[name].Mean())
		}
	}
	return s, nil
}

// Theorem1Row is one size of the Theorem 1 / Figure 4 experiment.
type Theorem1Row struct {
	P      int
	PXY    float64
	PMax   float64
	Ratio  float64
	PerRow float64 // Ratio / p: flat when the Θ(p) law holds
}

// RunTheorem1 evaluates the max-MP pattern against XY for square meshes
// p = 2·p' with the theory model (Pleak = 0, P0 = 1).
func RunTheorem1(pPrimes []int, alpha float64) ([]Theorem1Row, error) {
	model := power.Theory(alpha)
	rows := make([]Theorem1Row, 0, len(pPrimes))
	for _, pp := range pPrimes {
		flow, err := multipath.Theorem1Flow(pp, 1)
		if err != nil {
			return nil, err
		}
		mp, err := flow.Power(model)
		if err != nil {
			return nil, err
		}
		xy, err := multipath.XYSingleRoute(2*pp, 1, model)
		if err != nil {
			return nil, err
		}
		p := 2 * pp
		ratio := xy.Total() / mp.Total()
		rows = append(rows, Theorem1Row{
			P: p, PXY: xy.Total(), PMax: mp.Total(),
			Ratio: ratio, PerRow: ratio / float64(p),
		})
	}
	return rows, nil
}

// Lemma2Row is one size of the Lemma 2 / Figure 5 experiment.
type Lemma2Row struct {
	PPrime     int
	PXY, PYX   float64
	Ratio      float64
	Normalized float64 // Ratio / p'^{α−1}: flat when the Θ(p^{α−1}) law holds
}

// RunLemma2 evaluates the staircase instance for the given sizes.
func RunLemma2(pPrimes []int, alpha float64) ([]Lemma2Row, error) {
	rows := make([]Lemma2Row, 0, len(pPrimes))
	for _, pp := range pPrimes {
		pxy, pyx, err := theory.Lemma2Powers(pp, alpha)
		if err != nil {
			return nil, err
		}
		ratio := pxy / pyx
		rows = append(rows, Lemma2Row{
			PPrime: pp, PXY: pxy, PYX: pyx, Ratio: ratio,
			Normalized: ratio / math.Pow(float64(pp), alpha-1),
		})
	}
	return rows, nil
}

// OpenProblemRow is one (p, n) size of the conclusion's open problem:
// the single-path Manhattan gain for same-endpoint traffic.
type OpenProblemRow struct {
	P, N  int
	PXY   float64
	P1MP  float64
	Ratio float64
	Exact bool
}

// RunOpenProblem measures PXY/P1MP for n unit communications from corner
// to corner of a p×p mesh (exactly where tractable, heuristically above).
func RunOpenProblem(sizes [][2]int, alpha float64) ([]OpenProblemRow, error) {
	rows := make([]OpenProblemRow, 0, len(sizes))
	for _, sz := range sizes {
		pxy, p1mp, exactOpt, err := theory.SingleSourceGain(sz[0], sz[1], alpha)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OpenProblemRow{
			P: sz[0], N: sz[1], PXY: pxy, P1MP: p1mp,
			Ratio: pxy / p1mp, Exact: exactOpt,
		})
	}
	return rows, nil
}

// NoCValidation cross-checks one routed instance in the discrete-event
// simulator (experiment E15): per-communication delivered rate versus
// request, and simulated versus analytic power.
type NoCValidation struct {
	Policy          string
	Comms           int
	AnalyticPowerMW float64
	SimPowerMW      float64
	WorstRateError  float64 // max relative |delivered−requested|/requested
	MeanUtilization float64
}

// RunNoCValidation routes a random workload with a registered policy
// ("" means PR) and replays it in the simulator. Seeds yielding
// infeasible instances are skipped until a feasible one is found
// (bounded attempts); solver and simulator state are pooled across the
// attempt loop (route.Workspace, noc.Workspace), so skipped seeds cost no
// fresh construction.
func RunNoCValidation(seed int64, n int, policy string) (NoCValidation, error) {
	if policy == "" {
		policy = "PR"
	}
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	solver, err := solve.Lookup(policy)
	if err != nil {
		return NoCValidation{}, err
	}
	ws := route.NewWorkspace()
	sims := noc.NewWorkspace()
	gen := workload.New(m, 0)
	for attempt := 0; attempt < 50; attempt++ {
		set, err := scenario.DrawRandom(gen, seed+int64(attempt)*101, scenario.Params{N: n, WMin: 100, WMax: 1200}, nil)
		if err != nil {
			return NoCValidation{}, err
		}
		r, err := solver.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{Workspace: ws})
		if err != nil {
			continue // infeasibility proofs / blown budgets: try the next seed
		}
		res := route.Evaluate(r, model)
		if !res.Feasible {
			continue
		}
		sim, err := sims.Simulator(r, model, noc.Config{Horizon: 3000, Warmup: 500})
		if err != nil {
			return NoCValidation{}, err
		}
		st := sim.Run()
		v := NoCValidation{
			Policy:          solver.Name(),
			Comms:           n,
			AnalyticPowerMW: res.Power.Total(),
			SimPowerMW:      st.PowerMW,
			MeanUtilization: st.MeanUtilization(),
		}
		for _, c := range set {
			relErr := math.Abs(st.DeliveredRate(c.ID)-c.Rate) / c.Rate
			if relErr > v.WorstRateError {
				v.WorstRateError = relErr
			}
		}
		return v, nil
	}
	return NoCValidation{}, fmt.Errorf("experiments: no feasible instance found for NoC validation")
}
