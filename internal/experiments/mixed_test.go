package experiments

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/solve"
	"repro/internal/workload"
)

// A sweep over a mixed policy list — single-path PR, equal-split 2MP and
// the Frank–Wolfe MAXMP — must agree exactly with solving each trial
// instance directly through the solve registry: same per-trial seeds,
// same normalization against the best feasible power in the list.
func TestMixedPolicySweepAgreesWithDirectSolves(t *testing.T) {
	policies := []string{"PR", "2MP", "MAXMP"}
	w := scenario.Params{N: 8, WMin: 100, WMax: 1200}
	sp := scenario.Spec{ID: "mixed", Params: w, Seed: 21, Trials: 4, Policies: policies}
	res := mustRun(t, sp)
	if len(res.Series) != len(policies) {
		t.Fatalf("series count %d, want %d", len(res.Series), len(policies))
	}

	// Recompute every trial through solve.Route and reduce by hand.
	wantPow := make(map[string]float64)
	wantFail := make(map[string]float64)
	for trial := 0; trial < sp.Trials; trial++ {
		seed := trialSeed(sp.Seed, 0, trial)
		m := mesh.MustNew(8, 8)
		set, err := scenario.DrawRandom(workload.New(m, 0), seed, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set}
		type cell struct {
			feasible bool
			pow      float64
		}
		cells := make([]cell, len(policies))
		best := -1.0
		for i, name := range policies {
			r, err := solve.Route(name, in, solve.Options{Seed: seed})
			if err != nil {
				continue // counted as failure, like the sweep does
			}
			res := route.Evaluate(r, in.Model)
			cells[i] = cell{feasible: res.Feasible, pow: res.Power.Total()}
			if cells[i].feasible && (best < 0 || cells[i].pow < best) {
				best = cells[i].pow
			}
		}
		for i, name := range policies {
			if cells[i].feasible && best > 0 {
				wantPow[name] += best / cells[i].pow
			}
			if !cells[i].feasible {
				wantFail[name]++
			}
		}
	}

	for _, name := range policies {
		s := res.SeriesByName(name)
		if s == nil {
			t.Fatalf("missing series %s", name)
		}
		// The sweep's Welford mean and this plain sum/N may differ in the
		// last ulp; the underlying per-trial values are identical.
		if got, want := s.NormPowerInv[0], wantPow[name]/float64(sp.Trials); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s norm power: sweep %g, direct %g", name, got, want)
		}
		if got, want := s.FailureRatio[0], wantFail[name]/float64(sp.Trials); got != want {
			t.Errorf("%s failure ratio: sweep %g, direct %g", name, got, want)
		}
	}
}

// The acceptance sweep: a sweep over {XY, PR, 2MP, MAXMP, SA} completes
// and yields one well-formed series per policy.
func TestFivePolicySweepCompletes(t *testing.T) {
	sp := mustSpec(t, "fig7a")
	sp.Points = sp.Points[:2] // n = 5, 10
	sp.Trials = 3
	sp.Policies = []string{"XY", "PR", "2MP", "MAXMP", "SA"}
	res := mustRun(t, sp)
	if len(res.Series) != 5 {
		t.Fatalf("series count %d", len(res.Series))
	}
	for _, name := range sp.Policies {
		s := res.SeriesByName(name)
		if s == nil {
			t.Fatalf("missing series %s", name)
		}
		for pi := range res.X {
			if v := s.NormPowerInv[pi]; v < 0 || v > 1+1e-9 {
				t.Errorf("%s[%d]: normalized value %g outside [0,1]", name, pi, v)
			}
			if f := s.FailureRatio[pi]; f < 0 || f > 1 {
				t.Errorf("%s[%d]: failure ratio %g", name, pi, f)
			}
		}
	}
}

// Unknown policies are reported, not silently dropped.
func TestRunEUnknownPolicy(t *testing.T) {
	sp := mustSpec(t, "fig7a")
	sp.Policies = []string{"XY", "nope"}
	if _, err := Run(sp, SweepOptions{}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// Pooling is an optimization, not a semantic change: the scratch-reusing
// engine reproduces the allocating reference runner figure for figure.
func TestRunMatchesBaseline(t *testing.T) {
	sp := mustSpec(t, "fig7b")
	sp.Points = sp.Points[:3]
	sp.Trials = 10
	pooled, baseline := mustRun(t, sp), refBaseline(t, sp)
	for si := range pooled.Series {
		for pi := range pooled.X {
			if pooled.Series[si].NormPowerInv[pi] != baseline.Series[si].NormPowerInv[pi] {
				t.Errorf("%s[%d]: pooled norm power %g != baseline %g",
					pooled.Series[si].Name, pi,
					pooled.Series[si].NormPowerInv[pi], baseline.Series[si].NormPowerInv[pi])
			}
			if pooled.Series[si].FailureRatio[pi] != baseline.Series[si].FailureRatio[pi] {
				t.Errorf("%s[%d]: pooled failure %g != baseline %g",
					pooled.Series[si].Name, pi,
					pooled.Series[si].FailureRatio[pi], baseline.Series[si].FailureRatio[pi])
			}
		}
	}
}

// The sweep with length-targeted workloads exercises the pair-cache reuse
// path of the pooled engine.
func TestRunMatchesBaselineLengthSweep(t *testing.T) {
	sp := mustSpec(t, "fig9c")
	sp.Points = sp.Points[:2]
	sp.Trials = 6
	pooled, baseline := mustRun(t, sp), refBaseline(t, sp)
	for si := range pooled.Series {
		for pi := range pooled.X {
			if pooled.Series[si].NormPowerInv[pi] != baseline.Series[si].NormPowerInv[pi] ||
				pooled.Series[si].FailureRatio[pi] != baseline.Series[si].FailureRatio[pi] {
				t.Errorf("%s[%d] differs between pooled and baseline", pooled.Series[si].Name, pi)
			}
		}
	}
}
