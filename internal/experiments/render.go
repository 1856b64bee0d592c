package experiments

import (
	"fmt"
	"time"

	"repro/internal/tables"
)

// Table renders the §6.4 summary against the paper's reported values.
func (s Summary) Table() *tables.Table {
	names := s.Names
	if len(names) == 0 {
		names = HeuristicNames
	}
	ref := s.Ref
	if ref == "" {
		ref = "XY"
	}
	t := tables.New(
		fmt.Sprintf("Section 6.4 summary (%d instances)", s.Instances),
		"heuristic", "success", "paper", "inv-power gain vs "+ref, "paper", "mean time")
	paperSuccess := map[string]string{"XY": "0.15", "XYI": "0.46", "PR": "0.50", "BEST": "0.51"}
	paperGain := map[string]string{"XY": "1.00", "XYI": "2.44", "PR": "2.57", "BEST": "2.95"}
	if ref != "XY" {
		paperSuccess, paperGain = nil, nil // the paper's numbers are XY-normalized
	}
	for _, name := range names {
		dur := "-"
		if d, ok := s.MeanSolveTime[name]; ok {
			dur = d.Round(10 * time.Microsecond).String()
		}
		t.AddRow(name,
			fmt.Sprintf("%.3f", s.Success[name]), orDash(paperSuccess[name]),
			fmt.Sprintf("%.2f", s.InvPowerGainVsXY[name]), orDash(paperGain[name]),
			dur)
	}
	t.AddRow("static fraction", fmt.Sprintf("%.3f", s.StaticFraction), "≈0.143 (1/7)", "", "", "")
	return t
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Figure2Table renders the Figure 2 routing-rule comparison against the
// paper's values.
func Figure2Table(pxy, p1mp, p2mp float64) *tables.Table {
	t := tables.New("Figure 2: comparison of routing rules (2x2 mesh, Pleak=0, P0=1, α=3, BW=4)",
		"routing", "power", "paper")
	t.AddRow("XY", fmt.Sprintf("%g", pxy), "128")
	t.AddRow("best 1-MP", fmt.Sprintf("%g", p1mp), "56")
	t.AddRow("best 2-MP (γ2 split 1+2)", fmt.Sprintf("%g", p2mp), "32")
	return t
}

// Theorem1Table renders the Theorem 1 rows.
func Theorem1Table(rows []Theorem1Row) *tables.Table {
	t := tables.New("Theorem 1 / Figure 4: PXY/Pmax on p×p, single src/dst (α=3)",
		"p", "PXY", "Pmax", "ratio", "ratio/p")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.P),
			fmt.Sprintf("%.4g", r.PXY), fmt.Sprintf("%.4g", r.PMax),
			fmt.Sprintf("%.3f", r.Ratio), fmt.Sprintf("%.4f", r.PerRow))
	}
	return t
}

// Lemma2Table renders the Lemma 2 rows.
func Lemma2Table(rows []Lemma2Row, alpha float64) *tables.Table {
	t := tables.New(
		fmt.Sprintf("Lemma 2 / Figure 5: staircase PXY/PYX (α=%g)", alpha),
		"p'", "PXY", "PYX", "ratio", "ratio/p'^(α−1)")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.PPrime),
			fmt.Sprintf("%.4g", r.PXY), fmt.Sprintf("%.4g", r.PYX),
			fmt.Sprintf("%.3f", r.Ratio), fmt.Sprintf("%.4f", r.Normalized))
	}
	return t
}

// OpenProblemTable renders the conclusion's open-problem measurements.
func OpenProblemTable(rows []OpenProblemRow, alpha float64) *tables.Table {
	t := tables.New(
		fmt.Sprintf("Open problem (§7): 1-MP gain for same source/destination traffic (α=%g)", alpha),
		"p", "n", "PXY", "P1MP", "ratio", "optimal?")
	for _, r := range rows {
		opt := "heuristic"
		if r.Exact {
			opt = "exact"
		}
		t.AddRow(fmt.Sprintf("%d", r.P), fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%.4g", r.PXY), fmt.Sprintf("%.4g", r.P1MP),
			fmt.Sprintf("%.3f", r.Ratio), opt)
	}
	return t
}
