// Package experiments regenerates every figure of the paper's Section 6
// evaluation plus the Section 4 theory plots — and generalizes them. A
// scenario.Spec is the only description of a sweep: the figure panels are
// canned specs (Specs, SpecByID), and every spec — a power sweep (Sweep)
// or an optimality-gap report (OptGap) — runs through one streaming
// loop over the pooled trial engine, so any registered workload source
// × policy list × platform combination runs through the same pipeline.
// cmd/experiments, routed's /sweep and the repository benchmarks are thin
// wrappers over this package.
//
// Importing experiments registers every routing policy family with the
// solve registry; this file holds the only such imports, so every binary
// that resolves policy names by importing this package sees all of them.
package experiments

import (
	"fmt"

	"repro/internal/scenario"

	_ "repro/internal/exact"     // OPT
	_ "repro/internal/heur"      // XY, SG, IG, TB, XYI, PR, BEST, SA
	_ "repro/internal/multipath" // 2MP, 4MP
	_ "repro/internal/optflow"   // MAXMP
	_ "repro/internal/tabroute"  // TABLE
)

// DefaultTrials is the per-point trial count used when a spec leaves
// Trials at zero. The paper averages 50 000 sets per point; 400 keeps the
// full suite under a few minutes on a laptop while preserving the curve
// shapes.
const DefaultTrials = 400

// figureIDs is the canonical order of the canned figure sweeps.
var figureIDs = []string{
	"fig7a", "fig7b", "fig7c",
	"fig8a", "fig8b", "fig8c",
	"fig9a", "fig9b", "fig9c",
}

// FigureIDs returns the canned figure sweep identifiers in presentation
// order.
func FigureIDs() []string {
	return append([]string(nil), figureIDs...)
}

// Specs returns the canned figure sweeps of Section 6 as declarative
// scenario specs, keyed by ID. Every spec runs on the paper's 8×8 mesh
// with the heuristic line-up at DefaultTrials unless overridden.
func Specs() map[string]scenario.Spec {
	out := make(map[string]scenario.Spec)
	for _, sp := range []scenario.Spec{
		sweepN("fig7a", "Figure 7(a): sensitivity to #comms, small communications",
			100, 1500, []float64{5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140}),
		sweepN("fig7b", "Figure 7(b): sensitivity to #comms, mixed communications",
			100, 2500, []float64{5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70}),
		sweepN("fig7c", "Figure 7(c): sensitivity to #comms, big communications",
			2500, 3500, []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30}),
		sweepWeight("fig8a", "Figure 8(a): sensitivity to size, few communications (n=10)",
			10, 100, 3500),
		sweepWeight("fig8b", "Figure 8(b): sensitivity to size, some communications (n=20)",
			20, 100, 3500),
		sweepWeight("fig8c", "Figure 8(c): sensitivity to size, numerous communications (n=40)",
			40, 100, 1800),
		sweepLength("fig9a", "Figure 9(a): sensitivity to length, numerous small communications (n=100)",
			100, 200, 800),
		sweepLength("fig9b", "Figure 9(b): sensitivity to length, some mixed communications (n=25)",
			25, 100, 3500),
		sweepLength("fig9c", "Figure 9(c): sensitivity to length, few big communications (n=12)",
			12, 2700, 3300),
	} {
		out[sp.ID] = sp
	}
	return out
}

// SpecByID looks a canned figure spec up by its identifier.
func SpecByID(id string) (scenario.Spec, error) {
	sp, ok := Specs()[id]
	if !ok {
		return scenario.Spec{}, fmt.Errorf("experiments: unknown spec %q", id)
	}
	return sp, nil
}

// sweepN is the Figures 7a–c shape: δ ~ U[wmin, wmax], n swept.
func sweepN(id, title string, wmin, wmax float64, ns []float64) scenario.Spec {
	return scenario.Spec{
		ID: id, Title: title,
		Params: scenario.Params{WMin: wmin, WMax: wmax},
		Axis:   scenario.AxisN, Points: ns,
		Seed: 1,
	}
}

// weightBand is the relative half-width of the weight distribution around
// the swept average: δ ~ U[0.9·avg, 1.1·avg]. The paper plots against the
// average weight without stating the spread; a narrow band reproduces its
// sharp n-flows-per-link feasibility cliffs (e.g. the drop at 1751 Mb/s
// where two communications can no longer share a 3.5 Gb/s link).
const weightBand = scenario.DefaultWBand

// sweepWeight is the Figures 8a–c shape: n fixed, average weight swept
// over [lo, hi] in 200 Mb/s steps with the weightBand spread.
func sweepWeight(id, title string, n int, lo, hi float64) scenario.Spec {
	var pts []float64
	for avg := lo; avg <= hi; avg += 200 {
		pts = append(pts, avg)
	}
	return scenario.Spec{
		ID: id, Title: title,
		Params: scenario.Params{N: n, WBand: weightBand},
		Axis:   scenario.AxisWeight, Points: pts,
		Seed: 2,
	}
}

// sweepLength is the Figures 9a–c shape: n and the weight range fixed,
// the exact Manhattan length swept from 2 to 14.
func sweepLength(id, title string, n int, wmin, wmax float64) scenario.Spec {
	var pts []float64
	for ell := 2; ell <= 14; ell++ {
		pts = append(pts, float64(ell))
	}
	return scenario.Spec{
		ID: id, Title: title,
		Params: scenario.Params{N: n, WMin: wmin, WMax: wmax},
		Axis:   scenario.AxisLength, Points: pts,
		Seed: 3,
	}
}
