// Package stats provides the small statistical toolkit used by the
// experiment harness: running means and ratio counters for the two
// y-axes of Figures 7–9 (normalized inverse power and failure ratio).
package stats

import (
	"math"
	"sort"
)

// Accumulator computes a running mean without storing samples.
type Accumulator struct {
	n    int
	mean float64
}

// Add folds one sample into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.mean += (x - a.mean) / float64(a.n)
}

// Mean returns the sample mean (0 with no samples).
func (a *Accumulator) Mean() float64 { return a.mean }

// Ratio counts successes over trials (the failure-ratio axis).
type Ratio struct {
	Hits, Total int
}

// Add records one trial.
func (r *Ratio) Add(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Value returns hits/total (0 with no trials).
func (r *Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method, sorting a copy so the input is untouched. It
// returns 0 for empty input — the latency-report convention of the serve
// load harness, whose empty runs report zero rather than NaN.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[rank-1]
}
