package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/scenario"
)

// DefaultGapMaxStates is the per-instance search-node budget of a gap
// sweep. Gap reports run OPT on every trial, so the budget is deliberately
// tighter than exact.DefaultMaxStates: an instance the branch-and-bound
// cannot close within it counts as "OPT unsolved" for that trial instead
// of stalling the sweep.
const DefaultGapMaxStates = 2_000_000

// GapLayout is the gap report's layout: one table with a column per
// heuristic holding MeanGap[i], the mean of P_heuristic/P_opt over the
// point's matched trials — those where both the heuristic and OPT
// produced a feasible routing — so 1.000 means the heuristic found the
// optimum every time and 1.050 means it paid 5% more power on average. A
// column no trial matched (Matched[i] == 0) is empty in CSV and "-" in
// text rather than a misleading 0. The tail column counts the trials OPT
// closed within budget: OptSolved in CSV, OptSolved/Trials in text. For
// single-path heuristics every gap is ≥ 1 by construction; multi-path
// policies may dip below 1, since OPT optimizes over single-path routings
// only.
var GapLayout = Layout{{Name: "optgap", caption: "mean power / OPT power",
	tailCSV: "opt_solved", tailText: "OPT solved",
	cells: func(pr PointResult, text bool) []string {
		cells := make([]string, 0, len(pr.MeanGap)+1)
		for i, g := range pr.MeanGap {
			switch {
			case pr.Matched[i] > 0:
				cells = append(cells, fmt.Sprintf("%.*f", gapPrec, g))
			case text:
				cells = append(cells, "-")
			default:
				cells = append(cells, "")
			}
		}
		if text {
			return append(cells, fmt.Sprintf("%d/%d", pr.OptSolved, pr.Trials))
		}
		return append(cells, strconv.Itoa(pr.OptSolved))
	}}}

// gapPrec is the cell precision of gap tables: gaps cluster near 1, so
// they carry one digit more than the figure tables.
const gapPrec = 4

// OptGap streams a spec's optimality-gap report point by point into the
// sinks: every heuristic on every seeded trial of each point, plus the
// exact branch-and-bound OPT on the same instance, reduced to
// per-heuristic mean power ratios against the optimum. The spec's policy
// list names the heuristic columns (OPT, if present, is dropped — it is
// always the denominator); small meshes and communication counts keep OPT
// tractable. maxStates is the per-instance OPT node budget
// (0 = DefaultGapMaxStates). Trial-level parallelism already saturates
// the cores, so each OPT solve runs serially inside its worker. Per-trial
// seeds are the power sweep's (seed, point, trial) derivation, so the
// instances under the gap report are exactly the instances of the
// corresponding power sweep, and the output is byte-identical at every
// worker count. The sinks see GapLayout, and the meta's Policies lists
// the heuristic columns only (OPT is the denominator of every column,
// not a column).
func OptGap(sp scenario.Spec, opt SweepOptions, maxStates int, sinks ...Sink) error {
	names := sp.Policies
	if len(names) == 0 {
		names = HeuristicNames
	}
	heur := make([]string, 0, len(names)+1)
	for _, n := range names {
		if !strings.EqualFold(n, "OPT") {
			heur = append(heur, n)
		}
	}
	if len(heur) == 0 {
		return fmt.Errorf("experiments: gap sweep %s has no heuristic policies", sp.ID)
	}
	if maxStates == 0 {
		maxStates = DefaultGapMaxStates
	}
	sp.Policies = append(heur, "OPT")
	return stream(sp, opt, sinks, func(e *engine, meta *SweepMeta) {
		e.opts.ExactWorkers = 1
		e.opts.ExactMaxStates = maxStates
		meta.Policies = meta.Policies[:len(meta.Policies)-1]
		meta.Layout = GapLayout
	}, reduceGapPoint)
}

// reduceGapPoint folds one point's outcome rows (trial-major, heuristics
// first and OPT last in each) into its gap summary. A trial contributes
// to a heuristic's mean only when both that heuristic and OPT were
// feasible on the instance — OPT infeasibility proofs and budget truncations both
// surface as infeasible outcomes and are excluded rather than skewing the
// ratio.
func reduceGapPoint(pi int, x float64, npol int, rows []instanceOutcome) PointResult {
	nheur := npol - 1
	gp := PointResult{
		Index:   pi,
		X:       x,
		MeanGap: make([]float64, nheur),
		Matched: make([]int, nheur),
		Trials:  len(rows) / npol,
	}
	for lo := 0; lo < len(rows); lo += npol {
		row := rows[lo : lo+npol]
		opt := row[nheur]
		if !opt.feasible || opt.pow <= 0 {
			continue
		}
		gp.OptSolved++
		for si := 0; si < nheur; si++ {
			if o := row[si]; o.feasible {
				gp.MeanGap[si] += o.pow / opt.pow
				gp.Matched[si]++
			}
		}
	}
	for si := 0; si < nheur; si++ {
		if gp.Matched[si] > 0 {
			gp.MeanGap[si] /= float64(gp.Matched[si])
		}
	}
	return gp
}
