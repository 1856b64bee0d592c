package experiments

import (
	"math"
	"testing"

	"repro/internal/scenario"
)

// mustSpec returns a canned figure spec.
func mustSpec(t testing.TB, id string) scenario.Spec {
	t.Helper()
	sp, err := SpecByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// mustRun evaluates a spec on all cores and collects it.
func mustRun(t testing.TB, sp scenario.Spec) Result {
	t.Helper()
	res, err := Run(sp, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFigure2Powers(t *testing.T) {
	pxy, p1mp, p2mp, err := Figure2Powers()
	if err != nil {
		t.Fatal(err)
	}
	if pxy != 128 || p1mp != 56 || p2mp != 32 {
		t.Fatalf("Figure 2 powers = (%g, %g, %g), want (128, 56, 32)", pxy, p1mp, p2mp)
	}
}

func TestPanelRegistry(t *testing.T) {
	specs := Specs()
	if len(specs) != len(FigureIDs()) {
		t.Fatalf("%d canned specs, want %d", len(specs), len(FigureIDs()))
	}
	for _, id := range FigureIDs() {
		sp, ok := specs[id]
		if !ok {
			t.Fatalf("spec %s missing", id)
		}
		if len(sp.Points) == 0 {
			t.Errorf("spec %s has no points", id)
		}
		if err := Check(sp); err != nil {
			t.Errorf("spec %s: %v", id, err)
		}
	}
	if _, err := SpecByID("fig7a"); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByID("nope"); err == nil {
		t.Error("unknown spec accepted")
	}
}

// A small smoke run of a shrunken Figure 7(a): sanity-check invariants
// rather than exact values — normalized inverse power is within [0,1],
// BEST's value is 1 wherever it succeeds, failure ratios are monotone
// features of the series (XY fails at least as often as BEST).
func TestRunPanelInvariants(t *testing.T) {
	sp := mustSpec(t, "fig7a")
	sp.Points = sp.Points[:4] // n = 5..30
	sp.Trials = 30
	res := mustRun(t, sp)
	if len(res.Series) != len(HeuristicNames) {
		t.Fatalf("series count %d", len(res.Series))
	}
	best := res.SeriesByName("BEST")
	xy := res.SeriesByName("XY")
	if best == nil || xy == nil {
		t.Fatal("missing series")
	}
	for pi := range res.X {
		for _, s := range res.Series {
			v := s.NormPowerInv[pi]
			if v < 0 || v > 1+1e-9 {
				t.Errorf("%s[%d]: normalized value %g outside [0,1]", s.Name, pi, v)
			}
			f := s.FailureRatio[pi]
			if f < 0 || f > 1 {
				t.Errorf("%s[%d]: failure ratio %g", s.Name, pi, f)
			}
			if s.FailureRatio[pi] < best.FailureRatio[pi]-1e-9 {
				t.Errorf("%s fails less often than BEST at point %d", s.Name, pi)
			}
		}
		if math.Abs(best.NormPowerInv[pi]-(1-best.FailureRatio[pi])) > 1e-9 {
			t.Errorf("BEST norm value %g != success ratio %g",
				best.NormPowerInv[pi], 1-best.FailureRatio[pi])
		}
		if xy.FailureRatio[pi] < best.FailureRatio[pi] {
			t.Errorf("XY fails less than BEST at %d", pi)
		}
	}
}

// Determinism: same spec, same seeds, same results.
func TestRunPanelDeterministic(t *testing.T) {
	sp := mustSpec(t, "fig7c")
	sp.Points = sp.Points[:3]
	sp.Trials = 12
	a, b := mustRun(t, sp), mustRun(t, sp)
	for si := range a.Series {
		for pi := range a.X {
			if a.Series[si].NormPowerInv[pi] != b.Series[si].NormPowerInv[pi] {
				t.Fatalf("series %s point %d differs across runs", a.Series[si].Name, pi)
			}
		}
	}
}

// The paper's headline: on congested workloads XY fails much more often
// than the Manhattan heuristics. Shrunk Figure 7(a) at n=60–80 should
// already show a large gap.
func TestXYFailsMoreThanManhattan(t *testing.T) {
	sp := mustSpec(t, "fig7a")
	sp.Points = []float64{70}
	sp.Trials = 40
	res := mustRun(t, sp)
	xy := res.SeriesByName("XY").FailureRatio[0]
	pr := res.SeriesByName("PR").FailureRatio[0]
	xyi := res.SeriesByName("XYI").FailureRatio[0]
	if xy <= pr || xy <= xyi {
		t.Errorf("failure ratios: XY %.2f, XYI %.2f, PR %.2f — XY should fail most", xy, xyi, pr)
	}
}

func TestRunTheorem1(t *testing.T) {
	rows, err := RunTheorem1([]int{1, 2, 4, 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Ratio <= rows[i-1].Ratio {
			t.Errorf("Theorem 1 ratio not increasing: %+v", rows)
		}
	}
	// The Θ(p) law: ratio/p stays within a narrow band at larger sizes.
	if r := rows[3].PerRow / rows[2].PerRow; r < 0.7 || r > 1.4 {
		t.Errorf("ratio/p drifting: %v vs %v", rows[3], rows[2])
	}
}

func TestRunLemma2(t *testing.T) {
	rows, err := RunLemma2([]int{2, 4, 8, 16}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Ratio <= rows[i-1].Ratio {
			t.Errorf("Lemma 2 ratio not increasing")
		}
	}
	// Normalized column converges: Θ(p'^{α−1}).
	if r := rows[3].Normalized / rows[2].Normalized; r < 0.6 || r > 1.6 {
		t.Errorf("normalized ratio drifting: %+v", rows)
	}
}

func TestRunSummarySmall(t *testing.T) {
	s, err := RunSummary(1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Instances == 0 {
		t.Fatal("no instances")
	}
	for _, name := range []string{"XY", "PR", "XYI", "BEST"} {
		if s.Success[name] < 0 || s.Success[name] > 1 {
			t.Errorf("%s success %g", name, s.Success[name])
		}
	}
	if s.Success["BEST"] < s.Success["XY"] {
		t.Error("BEST succeeds less than XY")
	}
	if s.InvPowerGainVsXY["BEST"] < s.InvPowerGainVsXY["XY"] {
		t.Error("BEST gain below XY's own")
	}
	if s.StaticFraction <= 0 || s.StaticFraction >= 1 {
		t.Errorf("static fraction %g out of (0,1)", s.StaticFraction)
	}
	// Rendering does not panic and includes every heuristic.
	tab := s.Table()
	if len(tab.Rows) != len(HeuristicNames)+1 {
		t.Errorf("summary table rows = %d", len(tab.Rows))
	}
}

func TestRunNoCValidation(t *testing.T) {
	v, err := RunNoCValidation(3, 12, "")
	if err != nil {
		t.Fatal(err)
	}
	if v.WorstRateError > 0.15 {
		t.Errorf("worst delivery error %.1f%%", v.WorstRateError*100)
	}
	if math.Abs(v.SimPowerMW-v.AnalyticPowerMW) > 1e-6 {
		t.Errorf("sim power %g != analytic %g", v.SimPowerMW, v.AnalyticPowerMW)
	}
}

func TestResultTablesRender(t *testing.T) {
	sp := mustSpec(t, "fig9c")
	sp.Points = sp.Points[:2]
	sp.Trials = 5
	ts := NewTableSink()
	if err := Sweep(sp, SweepOptions{}, ts); err != nil {
		t.Fatal(err)
	}
	tabs := ts.Tables()
	np, fr := tabs[0], tabs[1]
	if len(np.Rows) != 2 || len(fr.Rows) != 2 {
		t.Fatalf("table rows: %d, %d", len(np.Rows), len(fr.Rows))
	}
	if np.String() == "" || fr.String() == "" {
		t.Error("empty render")
	}
}
