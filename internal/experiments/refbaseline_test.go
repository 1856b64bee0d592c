package experiments

import (
	"testing"

	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/solve"
	"repro/internal/workload"
)

// refBaseline is the pre-engine reference runner, kept as the oracle of
// the pooled sweep: the same trials, seeds and reduction, but allocating
// per trial — a fresh workload generator, a fresh evaluation through
// route.Evaluate, fresh outcome rows — and looping serially instead of
// reusing worker scratch on the worker pool. It draws only
// the random family, on mesh platforms.
func refBaseline(t *testing.T, sp scenario.Spec) Result {
	t.Helper()
	if sp.SourceName() != "uniform" || sp.Topology != "" {
		t.Fatalf("refBaseline draws the uniform source on meshes only, not %q on %q", sp.SourceName(), sp.Topology)
	}
	if sp.Trials == 0 {
		sp.Trials = DefaultTrials
	}
	meta := SweepMeta{ID: sp.ID, X: sp.XValues(), Trials: sp.Trials}
	e, err := newEngine(sp, meta)
	if err != nil {
		t.Fatal(err)
	}
	meta.Policies = e.names
	npol := len(e.solvers)
	rs := &resultSink{}
	if err := rs.Begin(meta); err != nil {
		t.Fatal(err)
	}
	for pi, x := range meta.X {
		var rows []instanceOutcome
		for trial := 0; trial < sp.Trials; trial++ {
			seed := trialSeed(sp.Seed, pi, trial)
			set, err := scenario.DrawRandom(workload.New(e.tp.Carrier(), 0), seed, sp.At(x), nil)
			if err != nil {
				t.Fatalf("point %d trial %d: %v", pi, trial, err)
			}
			in := solve.Instance{Topo: e.tp, Model: e.model, Comms: set}
			row := make([]instanceOutcome, npol)
			for si, solver := range e.solvers {
				if si == e.bestIdx {
					continue
				}
				r, err := solver.Route(in, solve.Options{Seed: seed})
				if err != nil {
					continue
				}
				ev := route.Evaluate(r, e.model)
				row[si] = instanceOutcome{feasible: ev.Feasible, pow: ev.Power.Total(), static: ev.Power.Static}
			}
			e.deriveBest(row)
			rows = append(rows, row...)
		}
		if err := rs.Point(reducePoint(pi, x, npol, rows)); err != nil {
			t.Fatal(err)
		}
	}
	return rs.result
}
