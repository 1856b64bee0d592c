package power

import (
	"math"
	"slices"
)

// Evaluator is the compiled form of a Model for hot evaluation loops: the
// per-frequency power Pleak + Dynamic(f) of the (typically three-entry)
// discrete ladder is precomputed into a flat table, so the per-probe cost
// of LinkPowerOK/Pseudo drops from a binary search plus a
// math.Pow call to a short linear scan over precomputed floats. The
// continuous case caches the FreqUnit divisor so the unit-defaulting
// branch of Model.Dynamic is paid once at compile time.
//
// Every query is bit-identical to the Model method it compiles
// (LinkPowerOK and the heuristics' pseudo-power extension):
// the table entries are produced by the same expressions the Model
// evaluates per probe, and the comparison thresholds reuse the Model's
// exact arithmetic, so replacing a Model call with the compiled form never
// changes a routing decision. TestEvaluatorMatchesModel pins this.
//
// An Evaluator is immutable after Compile and safe for concurrent use.
type Evaluator struct {
	model Model

	continuous bool
	pleak      float64
	p0         float64
	alpha      float64
	unit       float64 // FreqUnit with the zero-means-1 default applied
	maxBW      float64
	maxOK      float64 // MaxBW + loadEps, the strict feasibility bound

	// Discrete ladder: freqs mirrors Model.Freqs; powers[i] is the full
	// link power Pleak + Dynamic(freqs[i]) at that operating point.
	freqs  []float64
	powers []float64
}

// Compile builds the evaluator of m. The model is captured by value
// (Freqs copied), so later mutation of the caller's Model does not desync
// the tables.
func Compile(m Model) *Evaluator {
	e := &Evaluator{
		model:      m,
		continuous: m.Continuous(),
		pleak:      m.Pleak,
		p0:         m.P0,
		alpha:      m.Alpha,
		unit:       m.FreqUnit,
		maxBW:      m.MaxBW,
		maxOK:      m.MaxBW + loadEps,
	}
	if e.unit == 0 {
		e.unit = 1
	}
	if !e.continuous {
		e.freqs = slices.Clone(m.Freqs)
		e.model.Freqs = e.freqs
		e.powers = make([]float64, len(e.freqs))
		for i, f := range e.freqs {
			e.powers[i] = m.Pleak + m.Dynamic(f)
		}
	}
	return e
}

// CompiledFrom reports whether the evaluator was compiled from a model
// equal to m — the cache-validity check of workspace-pooled evaluators.
func (e *Evaluator) CompiledFrom(m Model) bool {
	return e.model.Pleak == m.Pleak && e.model.P0 == m.P0 &&
		e.model.Alpha == m.Alpha && e.model.MaxBW == m.MaxBW &&
		e.model.FreqUnit == m.FreqUnit && slices.Equal(e.model.Freqs, m.Freqs)
}

// dynamic is Model.Dynamic with the unit default pre-applied.
func (e *Evaluator) dynamic(f float64) float64 {
	return e.p0 * math.Pow(f/e.unit, e.alpha)
}

// ladder returns the index of the smallest discrete frequency at or above
// the load (ok=false past the top), the compiled form of the
// sort.SearchFloat64s step of Model.Quantize. The ladder is tiny (three
// entries in the Section 6 model), so a linear scan beats binary search.
func (e *Evaluator) ladder(load float64) (int, bool) {
	x := load - loadEps
	for i, f := range e.freqs {
		if f >= x {
			return i, true
		}
	}
	return 0, false
}

// LinkPowerOK mirrors Model.LinkPowerOK: the power of a link carrying the
// load (0 when idle), ok=false when infeasible. On the discrete ladder the
// answer is a table lookup.
func (e *Evaluator) LinkPowerOK(load float64) (p float64, ok bool) {
	if load < 0 {
		return 0, false
	}
	if load == 0 {
		return 0, true
	}
	if load > e.maxOK {
		return 0, false
	}
	if e.continuous {
		return e.pleak + e.dynamic(math.Min(load, e.maxBW)), true
	}
	i, ok := e.ladder(load)
	if !ok {
		return 0, false
	}
	return e.powers[i], true
}

// Pseudo extends the link power continuously past the top frequency, the
// refinement heuristics' comparison objective: an overloaded link is
// charged Pleak + Dynamic(load) as if a matching frequency existed, so
// candidate routings stay comparable while still infeasible.
func (e *Evaluator) Pseudo(load float64) float64 {
	if load <= 0 {
		return 0
	}
	if load > e.maxOK {
		return e.pleak + e.dynamic(load)
	}
	if e.continuous {
		return e.pleak + e.dynamic(math.Min(load, e.maxBW))
	}
	if i, ok := e.ladder(load); ok {
		return e.powers[i]
	}
	// Unreachable for validated models (the top frequency is MaxBW), kept
	// for exact agreement with the uncompiled fallback on ill-formed ones.
	return e.pleak + e.dynamic(load)
}

// Excess returns the overload excess max(0, load − MaxBW), the feasibility
// component of the refinement heuristics' objective.
func (e *Evaluator) Excess(load float64) float64 {
	if load > e.maxBW {
		return load - e.maxBW
	}
	return 0
}
