// Repository benchmark harness: one benchmark per table/figure of the
// paper (see the E-numbered comments below). The figure benchmarks run
// shrunken panels — fewer points and trials than cmd/experiments — so
// `go test -bench=.` stays fast; custom metrics expose the headline values
// of each figure (failure-rate gaps, power ratios) so regressions in the
// heuristics are visible directly in benchmark output.
package repro_test

import (
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/multipath"
	"repro/internal/noc"
	"repro/internal/npc"
	"repro/internal/optflow"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/solve"
	"repro/internal/workload"
)

// benchSpec shrinks a canned figure spec for benchmarking: at most three
// points, a handful of trials.
func benchSpec(b *testing.B, id string, trials int) scenario.Spec {
	b.Helper()
	sp, err := experiments.SpecByID(id)
	if err != nil {
		b.Fatal(err)
	}
	if n := len(sp.Points); n > 3 {
		sp.Points = []float64{sp.Points[0], sp.Points[n/2], sp.Points[n-1]}
	}
	sp.Trials = trials
	return sp
}

// sweepPoints collects a sweep's points for the figure metrics.
type sweepPoints struct {
	policies []string
	points   []experiments.PointResult
}

func (s *sweepPoints) Begin(meta experiments.SweepMeta) error {
	s.policies = meta.Policies
	return nil
}

func (s *sweepPoints) Point(p experiments.PointResult) error {
	s.points = append(s.points, p)
	return nil
}

func (s *sweepPoints) End() error { return nil }

// mid returns the named policy's failure ratio and normalized inverse
// power at the sweep's mid point (the most constrained point often
// defeats every heuristic, making its metrics uniformly zero).
func (s *sweepPoints) mid(policy string) (fail, norm float64) {
	p, i := s.points[len(s.points)/2], slices.Index(s.policies, policy)
	return p.FailureRatio[i], p.NormPowerInv[i]
}

// benchRun evaluates a spec, failing the benchmark on error.
func benchRun(b *testing.B, sp scenario.Spec) *sweepPoints {
	b.Helper()
	res := &sweepPoints{}
	if err := experiments.Sweep(sp, experiments.SweepOptions{}, res); err != nil {
		b.Fatal(err)
	}
	return res
}

// reportGap publishes the failure-rate gap between XY and the Manhattan
// heuristics at the sweep's mid point, plus PR's and XYI's normalized
// power there — the quantities the paper's plots are read for.
func reportGap(b *testing.B, res *sweepPoints) {
	b.Helper()
	xyFail, _ := res.mid("XY")
	prFail, prNorm := res.mid("PR")
	_, xyiNorm := res.mid("XYI")
	b.ReportMetric(xyFail-prFail, "failGapXY-PR")
	b.ReportMetric(prNorm, "prNormPower")
	b.ReportMetric(xyiNorm, "xyiNormPower")
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	var res *sweepPoints
	for i := 0; i < b.N; i++ {
		sp := benchSpec(b, id, 4)
		sp.Seed += int64(i) // fresh instances each iteration
		res = benchRun(b, sp)
	}
	reportGap(b, res)
}

// E1 — Figure 2: the routing-rule comparison (XY 128, 1-MP 56, 2-MP 32).
func BenchmarkFig2RoutingRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pxy, p1mp, p2mp, err := experiments.Figure2Powers()
		if err != nil {
			b.Fatal(err)
		}
		if pxy != 128 || p1mp != 56 || p2mp != 32 {
			b.Fatalf("Figure 2 drifted: %g/%g/%g", pxy, p1mp, p2mp)
		}
	}
}

// E2–E4 — Figure 7: sensitivity to the number of communications.
func BenchmarkFig7aSmall(b *testing.B) { benchFigure(b, "fig7a") }
func BenchmarkFig7bMixed(b *testing.B) { benchFigure(b, "fig7b") }
func BenchmarkFig7cBig(b *testing.B)   { benchFigure(b, "fig7c") }

// E5–E7 — Figure 8: sensitivity to the size of communications.
func BenchmarkFig8aFew(b *testing.B)      { benchFigure(b, "fig8a") }
func BenchmarkFig8bSome(b *testing.B)     { benchFigure(b, "fig8b") }
func BenchmarkFig8cNumerous(b *testing.B) { benchFigure(b, "fig8c") }

// E8–E10 — Figure 9: sensitivity to the length of communications.
func BenchmarkFig9aNumerousSmall(b *testing.B) { benchFigure(b, "fig9a") }
func BenchmarkFig9bSomeMid(b *testing.B)       { benchFigure(b, "fig9b") }
func BenchmarkFig9cFewBig(b *testing.B)        { benchFigure(b, "fig9c") }

// E11 — §6.4 summary statistics (success rates, inverse-power gains,
// static fraction).
func BenchmarkSummaryStats(b *testing.B) {
	var s experiments.Summary
	for i := 0; i < b.N; i++ {
		var err error
		if s, err = experiments.RunSummary(1, int64(i), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.Success["XY"], "xySuccess")
	b.ReportMetric(s.Success["PR"], "prSuccess")
	b.ReportMetric(s.InvPowerGainVsXY["BEST"], "bestGainVsXY")
	b.ReportMetric(s.StaticFraction, "staticFraction")
}

// E12 — Theorem 1 / Figure 4: the max-MP pattern's Θ(p) gain.
func BenchmarkTheorem1Ratio(b *testing.B) {
	var rows []experiments.Theorem1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTheorem1([]int{1, 2, 4, 8, 16}, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].PerRow, "ratioPerP")
}

// E13 — Lemma 2 / Figure 5: the staircase's Θ(p^{α−1}) gain.
func BenchmarkLemma2Ratio(b *testing.B) {
	var rows []experiments.Lemma2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunLemma2([]int{2, 4, 8, 16}, 2.95)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].Normalized, "ratioPerPAlpha")
}

// E14 — Theorem 3 / Figure 6: building and deciding the NP-completeness
// gadget.
func BenchmarkNPGadget(b *testing.B) {
	a := []int{13, 7, 5, 11, 2, 8, 6, 4, 9, 3}
	for i := 0; i < b.N; i++ {
		red, err := npc.Build(a, 3)
		if err != nil {
			b.Fatal(err)
		}
		subset, ok := npc.Partition(red.A)
		if !ok {
			b.Fatal("gadget unexpectedly infeasible")
		}
		routing, err := red.RoutingFromPartition(subset)
		if err != nil {
			b.Fatal(err)
		}
		if err := routing.Validate(red.Comms, red.S); err != nil {
			b.Fatal(err)
		}
	}
}

// E15 — discrete-event simulator cross-validation of a routed workload,
// one sub-benchmark per switching mode, through the pooled noc.Workspace
// (the multi-trial configuration the arena engine is built for; the
// old-vs-new engine ratio lives in internal/noc's
// BenchmarkEngineVsReference). TestEmitBenchJSON records both modes as
// the NoCSimSF/NoCSimCT rows, and cmd/benchguard fails CI when either
// regresses beyond 2× over the same session's XY.
func BenchmarkNoCSim(b *testing.B) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 8).Uniform(15, 100, 1200)
	res := solveEval(b, heur.PR{}, solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
	if !res.Feasible {
		b.Fatalf("setup: infeasible: %v", res.Err)
	}
	for _, sw := range []noc.Switching{noc.StoreAndForward, noc.CutThrough} {
		b.Run(sw.String(), func(b *testing.B) {
			ws := noc.NewWorkspace()
			b.ReportAllocs()
			var worst float64
			for i := 0; i < b.N; i++ {
				sim, err := ws.Simulator(res.Routing, model, noc.Config{Horizon: 1000, Warmup: 200, Switching: sw})
				if err != nil {
					b.Fatal(err)
				}
				st := sim.Run()
				if st.Injected != st.Delivered+st.Stalled+st.InFlight {
					b.Fatalf("accounting identity broken: %d != %d+%d+%d",
						st.Injected, st.Delivered, st.Stalled, st.InFlight)
				}
				worst = 0
				for _, c := range set {
					if e := relErr(st.DeliveredRate(c.ID), c.Rate); e > worst {
						worst = e
					}
				}
			}
			b.ReportMetric(worst, "worstRateErr")
		})
	}
}

// Engine — the pooled per-worker-scratch trial runner on a shrunken
// Figure 7(a). Its allocating predecessor survives only as the test
// oracle TestRunMatchesBaseline compares it against.
func BenchmarkPanelRunner(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRun(b, benchSpec(b, "fig7a", 16))
		}
	})
}

// maxAllocsPerTrial locks in the pooled runner's allocation discipline:
// the engine's per-trial path reuses worker scratch AND hands each policy
// the worker's dense route.Workspace, so a trial costs only instance
// validation and interface plumbing (~5 allocs for XY at n=70, down from
// ~147 before the workspace layer). A regression that reverts to
// per-trial allocation anywhere — engine scratch or solver internals —
// blows straight through this bound.
const maxAllocsPerTrial = 8

// Allocation guard on the pooled panel runner's per-trial path.
func BenchmarkPanelTrialAllocs(b *testing.B) {
	sp, err := experiments.SpecByID("fig7a")
	if err != nil {
		b.Fatal(err)
	}
	sp.Points = []float64{sp.Points[len(sp.Points)/2]} // n=70
	const trials = 64
	sp.Trials = trials
	sp.Policies = []string{"XY"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRun(b, sp)
	}
	b.StopTimer()
	// AllocsPerRun pins GOMAXPROCS to 1, so this measures exactly the
	// serial per-trial hot path with a single worker scratch.
	perTrial := testing.AllocsPerRun(3, func() { benchRun(b, sp) }) / trials
	b.ReportMetric(perTrial, "allocs/trial")
	if perTrial > maxAllocsPerTrial {
		b.Fatalf("per-trial allocations %.0f exceed the guard %d — the pooled engine is allocating on the hot path",
			perTrial, maxAllocsPerTrial)
	}
}

// solveEval routes the instance with s under o and evaluates the routing.
func solveEval(tb testing.TB, s solve.Solver, in solve.Instance, o solve.Options) route.Result {
	tb.Helper()
	r, err := s.Route(in, o)
	if err != nil {
		tb.Fatalf("%s: %v", s.Name(), err)
	}
	return route.Evaluate(r, in.Model)
}

func relErr(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// E17 — classic permutation benchmarks (extension): deterministic
// structured traffic on the paper's mesh.
func BenchmarkPatternBenchmarks(b *testing.B) {
	var rows []experiments.PatternRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunPatterns(900, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	feasible := 0
	for _, r := range rows {
		if r.Cells["BEST"].Feasible {
			feasible++
		}
	}
	b.ReportMetric(float64(feasible), "bestFeasiblePatterns")
}

// Ablation — processing order: the paper reports decreasing weight as the
// best greedy order (Section 5); this bench compares the four orders on a
// congested Figure 7(a) point via TB's failure rate.
func BenchmarkAblationOrdering(b *testing.B) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	for _, order := range []comm.Order{comm.ByWeightDesc, comm.ByWeightAsc, comm.ByLengthDesc, comm.ByDensityDesc} {
		b.Run(order.String(), func(b *testing.B) {
			fails := 0
			total := 0
			for i := 0; i < b.N; i++ {
				set := workload.New(m, int64(i)).Uniform(60, 100, 1500)
				res := solveEval(b, heur.TB{}, solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{Order: order})
				total++
				if !res.Feasible {
					fails++
				}
			}
			b.ReportMetric(float64(fails)/float64(total), "failRatio")
		})
	}
}

// Ablation — PR share accounting: redistribution of virtual shares onto
// surviving links (the default, matching the paper's ideal-sharing
// bookkeeping) versus static shares that vanish with removed links.
func BenchmarkAblationPRShares(b *testing.B) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	for _, tc := range []struct {
		name string
		h    heur.PR
	}{{"redistribute", heur.PR{}}, {"static", heur.PR{StaticShares: true}}} {
		b.Run(tc.name, func(b *testing.B) {
			fails := 0
			for i := 0; i < b.N; i++ {
				set := workload.New(m, int64(i)).Uniform(80, 100, 1500)
				res := solveEval(b, tc.h, solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
				if !res.Feasible {
					fails++
				}
			}
			b.ReportMetric(float64(fails)/float64(b.N), "failRatio")
		})
	}
}

// Ablation — discrete versus continuous frequency scaling on Figure 7(a).
func BenchmarkAblationDiscreteFreq(b *testing.B) {
	for _, tc := range []struct{ name, power string }{{"discrete", ""}, {"continuous", "continuous"}} {
		b.Run(tc.name, func(b *testing.B) {
			var res *sweepPoints
			for i := 0; i < b.N; i++ {
				sp := benchSpec(b, "fig7a", 3)
				sp.Power = tc.power
				sp.Seed += int64(i)
				res = benchRun(b, sp)
			}
			prFail, _ := res.mid("PR")
			b.ReportMetric(prFail, "prFailRatio")
		})
	}
}

// Per-heuristic throughput on the reference workload (n=100, small
// communications) — the paper's timing discussion (§6.4: 24 ms XYI,
// 38 ms PR on 2011 hardware).
func BenchmarkHeuristics(b *testing.B) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 1).Uniform(100, 100, 1500)
	in := solve.Instance{Mesh: m, Model: model, Comms: set}
	for _, h := range []solve.Solver{heur.XY{}, heur.SG{}, heur.IG{}, heur.TB{}, heur.XYI{}, heur.PR{}} {
		b.Run(h.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solveEval(b, h, in, solve.Options{})
			}
		})
	}
}

// Optimality gap: how far the best single-path heuristic routing sits
// above the unrestricted (max-MP, continuous) optimum computed by
// Frank–Wolfe — the absolute-quality question the paper's conclusion
// raises. Reported as bestOverOpt = P_BEST,dynamic / P_maxMP.
func BenchmarkOptimalityGap(b *testing.B) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitzContinuous()
	var gap float64
	for i := 0; i < b.N; i++ {
		set := workload.New(m, int64(i)).Uniform(30, 100, 1500)
		res := solveEval(b, heur.Best{}, solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
		sol, err := optflow.SolveWith(m, model, set, optflow.Options{MaxIters: 150}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Feasible && sol.Power > 0 {
			gap = res.Power.Dynamic / sol.Power
		}
	}
	b.ReportMetric(gap, "bestOverOpt")
}

// Exact solver on small instances (the optimality baseline).
func BenchmarkExactSolver(b *testing.B) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitz()
	set := workload.New(m, 3).Uniform(6, 200, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exact.Solve(m, model, set); err != nil {
			b.Fatal(err)
		}
	}
}

// Theorem 1 flow decomposition into explicit max-MP paths.
func BenchmarkFlowDecomposition(b *testing.B) {
	flow, err := multipath.Theorem1Flow(8, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Decompose(0); err != nil {
			b.Fatal(err)
		}
	}
}
