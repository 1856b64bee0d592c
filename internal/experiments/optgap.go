package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/scenario"
	"repro/internal/tables"
)

// DefaultGapMaxStates is the per-instance search-node budget of a gap
// sweep. Gap reports run OPT on every trial, so the budget is deliberately
// tighter than exact.DefaultMaxStates: an instance the branch-and-bound
// cannot close within it counts as "OPT unsolved" for that trial instead
// of stalling the sweep.
const DefaultGapMaxStates = 2_000_000

// GapPoint is one fully evaluated gap point. MeanGap[i] is the mean of
// P_heuristic/P_opt over the point's matched trials — those where both
// the heuristic and OPT produced a feasible routing — so 1.000 means the
// heuristic found the optimum every time and 1.050 means it paid 5% more
// power on average. Matched[i] counts those trials (MeanGap[i] is 0 when
// none matched); OptSolved counts the trials OPT closed within budget.
// For single-path heuristics every gap is ≥ 1 by construction; multi-path
// policies may dip below 1, since OPT optimizes over single-path routings
// only.
type GapPoint struct {
	Index     int
	X         float64
	MeanGap   []float64
	Matched   []int
	OptSolved int
	Trials    int
}

// GapSink consumes a gap sweep incrementally, one evaluated point at a
// time in point order — the same streaming contract as Sink. The meta's
// Policies lists the heuristic columns only (OPT is the denominator of
// every column, not a column) and MaxStates carries the OPT node budget.
type GapSink interface {
	Begin(meta SweepMeta) error
	Point(gp GapPoint) error
	End() error
}

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
// worker count.
func OptGap(sp scenario.Spec, opt SweepOptions, maxStates int, sinks ...GapSink) error {
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
		meta.MaxStates = maxStates
	}, reduceGapPoint)
}

// reduceGapPoint folds one point's outcome rows (trial-major, heuristics
// first and OPT last in each) into its gap summary. A trial contributes
// to a heuristic's mean only when both that heuristic and OPT were
// feasible on the instance — OPT infeasibility proofs and budget truncations both
// surface as infeasible outcomes and are excluded rather than skewing the
// ratio.
func reduceGapPoint(pi int, x float64, npol int, rows []instanceOutcome) GapPoint {
	nheur := npol - 1
	gp := GapPoint{
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

// gapCell formats one heuristic's gap cell; unmatched columns are empty
// rather than a misleading 0.
func gapCell(gp GapPoint, si int) string {
	if gp.Matched[si] == 0 {
		return ""
	}
	return fmt.Sprintf("%.*f", gapPrec, gp.MeanGap[si])
}

// GapCSVSink streams the gap report as CSV: one row per point, one column
// per heuristic (mean P/P_opt, empty when no trial matched), and a final
// opt_solved column counting the trials OPT closed.
type GapCSVSink struct {
	W io.Writer
}

// NewGapCSVSink returns a CSV gap sink over w.
func NewGapCSVSink(w io.Writer) *GapCSVSink { return &GapCSVSink{W: w} }

// Begin implements GapSink. Like CSVSink, it writes no header on resume.
func (s *GapCSVSink) Begin(meta SweepMeta) error {
	if meta.Start > 0 {
		return nil
	}
	header := append([]string{meta.XLabel}, meta.Policies...)
	header = append(header, "opt_solved")
	_, err := io.WriteString(s.W, tables.CSVLine(header))
	return err
}

// Point implements GapSink.
func (s *GapCSVSink) Point(gp GapPoint) error {
	cells := make([]string, 0, len(gp.MeanGap)+2)
	cells = append(cells, xLabel(gp.X))
	for si := range gp.MeanGap {
		cells = append(cells, gapCell(gp, si))
	}
	cells = append(cells, fmt.Sprintf("%d", gp.OptSolved))
	_, err := io.WriteString(s.W, tables.CSVLine(cells))
	return err
}

// End implements GapSink.
func (s *GapCSVSink) End() error { return nil }

// GapTableSink accumulates the gap report into one aligned text table for
// terminal rendering after the sweep completes.
type GapTableSink struct {
	table *tables.Table
}

// NewGapTableSink returns an accumulating gap table sink.
func NewGapTableSink() *GapTableSink { return &GapTableSink{} }

// Begin implements GapSink.
func (s *GapTableSink) Begin(meta SweepMeta) error {
	headers := append([]string{meta.XLabel}, meta.Policies...)
	headers = append(headers, "OPT solved")
	s.table = tables.New(meta.Title+" — mean power / OPT power", headers...)
	return nil
}

// Point implements GapSink.
func (s *GapTableSink) Point(gp GapPoint) error {
	cells := make([]string, 0, len(gp.MeanGap)+2)
	cells = append(cells, xLabel(gp.X))
	for si := range gp.MeanGap {
		if c := gapCell(gp, si); c != "" {
			cells = append(cells, c)
		} else {
			cells = append(cells, "-")
		}
	}
	cells = append(cells, fmt.Sprintf("%d/%d", gp.OptSolved, gp.Trials))
	s.table.AddRow(cells...)
	return nil
}

// End implements GapSink.
func (s *GapTableSink) End() error { return nil }

// Table returns the accumulated table (nil before Begin).
func (s *GapTableSink) Table() *tables.Table { return s.table }
