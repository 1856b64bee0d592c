package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/scenario"
	"repro/internal/solve"
	"repro/internal/stats"
)

// ConstructiveNames are the paper's six constructive single-path
// heuristics in presentation order — the set BEST minimizes over.
var ConstructiveNames = []string{"XY", "SG", "IG", "TB", "XYI", "PR"}

// HeuristicNames is the plotting order of the Section 6 figures
// (the constructive heuristics plus BEST), and the policy list a sweep
// evaluates when its spec lists no policies.
var HeuristicNames = append(append([]string{}, ConstructiveNames...), "BEST")

// instanceOutcome is one policy's evaluation on one instance.
type instanceOutcome struct {
	feasible bool
	pow      float64
	static   float64
}

// dropBest strips "BEST" from a policy list for the runners that always
// derive it themselves; an empty remainder falls back to the paper's
// constructive line-up (BEST over exactly those six).
func dropBest(policies []string) []string {
	out := make([]string, 0, len(policies))
	for _, p := range policies {
		if strings.EqualFold(p, "BEST") {
			continue
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return ConstructiveNames
	}
	return out
}

// lookup resolves policy names against the solve registry: the solvers
// and their canonical names, in list order.
func lookup(policies []string) ([]solve.Solver, []string, error) {
	solvers := make([]solve.Solver, len(policies))
	names := make([]string, len(policies), len(policies)+1)
	for i, p := range policies {
		s, err := solve.Lookup(p)
		if err != nil {
			return nil, nil, err
		}
		solvers[i], names[i] = s, s.Name()
	}
	return solvers, names, nil
}

// SweepOptions tunes a streaming sweep.
type SweepOptions struct {
	// Start skips the points before this index — the resume hook: because
	// per-trial seeds derive only from (seed, point, trial), a sweep
	// restarted at the checkpointed point index streams exactly the
	// output an uninterrupted run would have produced from that point on.
	Start int
	// Workers is the number of persistent scheduler workers the sweep
	// runs on (0 = GOMAXPROCS). Per-trial seeds depend only on
	// (seed, point, trial) and the merge stage releases points to the
	// sinks strictly in point order, so every worker count — including
	// the serial Workers=1 reference — streams byte-identical output.
	Workers int
	// Context, when non-nil, cancels the sweep: workers stop pulling
	// chunks, in-flight long solves abandon via solve.Options.Stop, and
	// the sweep returns the context's error. Points already released to the
	// sinks stay valid checkpoints (the resume contract), the sinks' End
	// is never called on a cancelled run, and a nil or never-cancelled
	// Context leaves the output byte-identical to a run without one.
	Context context.Context
	// TrialStart, when non-nil, runs on the executing worker immediately
	// before every (point, trial) evaluation. It is the fault-injection
	// and instrumentation hook of the serving layer's chaos harness: it
	// may sleep (latency spikes) or panic (contained like a solver
	// panic). It must be safe for concurrent calls.
	TrialStart func(point, trial int)
}

// Sweep streams a spec's evaluation point by point into the sinks:
// every policy on every seeded trial of each point, reduced to the
// paper's normalized-inverse-power and failure-ratio series. Sinks
// receive each point as soon as it is evaluated, so long sweeps emit
// partial results and can be resumed by point index after an
// interruption.
func Sweep(sp scenario.Spec, opt SweepOptions, sinks ...Sink) error {
	return stream(sp, opt, sinks, nil, reducePoint)
}

// stream is the one sweep loop behind Sweep and OptGap: it resolves the
// spec's captions and trial count into the meta, builds the engine,
// announces the meta to the sinks, runs the (point, trial) space on the
// shared worker pool, reduces each completed point and emits it in
// point order, and ends the sinks — or returns the context's error when
// the sweep was cancelled, with End never called. tune, when non-nil,
// adjusts the engine and its meta before the first Begin.
func stream(sp scenario.Spec, opt SweepOptions, sinks []Sink,
	tune func(e *engine, meta *SweepMeta),
	reduce func(pi int, x float64, npol int, rows []instanceOutcome) PointResult) error {
	meta := SweepMeta{
		ID:     sp.ID,
		Title:  sp.Title,
		XLabel: sp.XLabel,
		X:      sp.XValues(),
		Trials: sp.Trials,
		Start:  opt.Start,
		Layout: PowerLayout,
	}
	if meta.ID == "" {
		meta.ID = "sweep"
	}
	if meta.Title == "" {
		meta.Title = fmt.Sprintf("%s sweep (%s)", sp.SourceName(), meta.ID)
	}
	if meta.XLabel == "" {
		meta.XLabel = sp.DefaultXLabel()
	}
	if meta.Trials == 0 {
		meta.Trials = DefaultTrials
	}
	e, err := newEngine(sp, meta)
	if err != nil {
		return err
	}
	if ctx := opt.Context; ctx != nil {
		e.stop = func() bool { return ctx.Err() != nil }
	}
	e.trialStart = opt.TrialStart
	if opt.Start < 0 || opt.Start > len(meta.X) {
		return fmt.Errorf("experiments: resume point %d outside 0..%d", opt.Start, len(meta.X))
	}
	meta.Policies = e.names
	if tune != nil {
		tune(e, &meta)
	}
	for _, sk := range sinks {
		if err := sk.Begin(meta); err != nil {
			return err
		}
	}
	npol := len(e.solvers)
	err = e.sweep(sp.Seed, opt.Start, opt.Workers, func(pi int, rows []instanceOutcome) error {
		p := reduce(pi, meta.X[pi], npol, rows)
		for _, sk := range sinks {
			if err := sk.Point(p); err != nil {
				return err
			}
		}
		return nil
	})
	if ctx := opt.Context; ctx != nil && ctx.Err() != nil {
		// Cancellation dominates whatever the halt surfaced as on the
		// workers (a stopped solver, a chunk abandoned between polls): the
		// caller asked the sweep to stop and gets the context's verdict.
		return ctx.Err()
	}
	if err != nil {
		return err
	}
	for _, sk := range sinks {
		if err := sk.End(); err != nil {
			return err
		}
	}
	return nil
}

// reducePoint folds one point's outcome rows (trial-major, npol per
// trial) into the two series values of that point: normalized inverse
// power against the best feasible policy of each row, and failure ratio
// — the paper's normalization.
func reducePoint(pi int, x float64, npol int, rows []instanceOutcome) PointResult {
	accPow := make([]stats.Accumulator, npol)
	accFail := make([]stats.Ratio, npol)
	for lo := 0; lo < len(rows); lo += npol {
		row := rows[lo : lo+npol]
		best := -1.0
		for _, o := range row {
			if o.feasible && (best < 0 || o.pow < best) {
				best = o.pow
			}
		}
		for si, o := range row {
			val := 0.0
			if o.feasible && best > 0 {
				val = best / o.pow // (1/P)/(1/Pbest)
			}
			accPow[si].Add(val)
			accFail[si].Add(!o.feasible)
		}
	}
	pr := PointResult{
		Index:        pi,
		X:            x,
		Trials:       len(rows) / npol,
		NormPowerInv: make([]float64, npol),
		FailureRatio: make([]float64, npol),
	}
	for si := 0; si < npol; si++ {
		pr.NormPowerInv[si] = accPow[si].Mean()
		pr.FailureRatio[si] = accFail[si].Value()
	}
	return pr
}
