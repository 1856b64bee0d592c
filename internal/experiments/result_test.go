// In-memory sweep results for the package tests: a sweep streamed into
// one accumulating sink and read back series by series.
package experiments

import "repro/internal/scenario"

// Series is one policy's curve across the sweep's points: the two y-axes
// of Figures 7–9.
type Series struct {
	Name string
	// NormPowerInv is the mean of (1/P_policy)/(1/P_best) per point, with
	// failed instances contributing 0 — the paper's normalization, where
	// P_best is the lowest feasible power any of the sweep's policies
	// found on that instance.
	NormPowerInv []float64
	// FailureRatio is the fraction of instances with no valid solution.
	FailureRatio []float64
}

// Result is a fully evaluated sweep, collected in memory by Run.
type Result struct {
	X      []float64
	Series []Series
}

// SeriesByName returns the named series, or nil.
func (r Result) SeriesByName(name string) *Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// Run evaluates a spec and collects its series in memory — Sweep into
// one accumulating sink. Results are deterministic: per-trial seeds are
// derived from (seed, point, trial) and the reduction is ordered.
func Run(sp scenario.Spec, opt SweepOptions) (Result, error) {
	rs := &resultSink{}
	if err := Sweep(sp, opt, rs); err != nil {
		return Result{}, err
	}
	return rs.result, nil
}

// resultSink collects a stream into the Result Run returns.
type resultSink struct {
	result Result
}

func (s *resultSink) Begin(meta SweepMeta) error {
	s.result.X = make([]float64, 0, len(meta.X))
	s.result.Series = make([]Series, len(meta.Policies))
	for i, name := range meta.Policies {
		s.result.Series[i] = Series{Name: name}
	}
	return nil
}

func (s *resultSink) Point(pr PointResult) error {
	s.result.X = append(s.result.X, pr.X)
	for i := range s.result.Series {
		s.result.Series[i].NormPowerInv = append(s.result.Series[i].NormPowerInv, pr.NormPowerInv[i])
		s.result.Series[i].FailureRatio = append(s.result.Series[i].FailureRatio, pr.FailureRatio[i])
	}
	return nil
}

func (s *resultSink) End() error { return nil }
