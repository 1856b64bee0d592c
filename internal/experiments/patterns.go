package experiments

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/tables"
	"repro/internal/workload"
)

// PatternCell is one heuristic's outcome on one permutation pattern.
type PatternCell struct {
	Feasible bool
	PowerMW  float64
}

// PatternRow is the evaluation of a policy list on one classic NoC
// permutation pattern at a fixed per-flow rate.
type PatternRow struct {
	Pattern workload.Pattern
	Rate    float64
	Flows   int
	// Names is the evaluated policy list plus the trailing derived BEST —
	// the column order of PatternTable.
	Names []string
	Cells map[string]PatternCell // keyed by policy name, plus BEST
}

// RunPatterns routes the classic permutation benchmarks (bit-complement,
// bit-reverse, shuffle, tornado, neighbor) on the paper's 8×8 mesh with a
// policy list (nil means ConstructiveNames); BEST is derived as the best
// feasible of the list, and a literal "BEST" entry is absorbed into the
// derived column so any -policies list the figure sweeps accept works
// here too. Patterns are deterministic, so no trials are involved; the
// experiment extends the paper's random workloads with the structured
// traffic the NoC literature evaluates on.
func RunPatterns(rate float64, policies []string) ([]PatternRow, error) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	solvers, names, err := lookup(dropBest(policies))
	if err != nil {
		return nil, err
	}
	names = append(names, "BEST")
	var rows []PatternRow
	for _, p := range workload.Patterns() {
		set, err := workload.Permutation(m, nil, p, rate)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v: %w", p, err)
		}
		row := PatternRow{Pattern: p, Rate: rate, Flows: len(set), Names: names, Cells: make(map[string]PatternCell)}
		bestPow := -1.0
		for si, solver := range solvers {
			r, err := solver.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
			if err != nil {
				return nil, err
			}
			res := route.Evaluate(r, model)
			cell := PatternCell{Feasible: res.Feasible, PowerMW: res.Power.Total()}
			row.Cells[names[si]] = cell
			if cell.Feasible && (bestPow < 0 || cell.PowerMW < bestPow) {
				bestPow = cell.PowerMW
			}
		}
		row.Cells["BEST"] = PatternCell{Feasible: bestPow > 0, PowerMW: bestPow}
		rows = append(rows, row)
	}
	return rows, nil
}

// PatternTable renders the permutation benchmark results.
func PatternTable(rows []PatternRow) *tables.Table {
	names := HeuristicNames
	if len(rows) > 0 && len(rows[0].Names) > 0 {
		names = rows[0].Names
	}
	headers := append([]string{"pattern", "flows"}, names...)
	t := tables.New(
		fmt.Sprintf("Permutation benchmarks on 8×8 (%.0f Mb/s per flow; power in mW, FAIL = bandwidth violated)",
			rowsRate(rows)),
		headers...)
	for _, r := range rows {
		cells := []string{r.Pattern.String(), fmt.Sprintf("%d", r.Flows)}
		for _, name := range names {
			c := r.Cells[name]
			if !c.Feasible {
				cells = append(cells, "FAIL")
			} else {
				cells = append(cells, fmt.Sprintf("%.0f", c.PowerMW))
			}
		}
		t.AddRow(cells...)
	}
	return t
}

func rowsRate(rows []PatternRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Rate
}
