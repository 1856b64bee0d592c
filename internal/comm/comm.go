// Package comm models the communications to be routed on the CMP
// (Section 3.2): a set {γ1, …, γnc} where γi = (src core, sink core, δi)
// and δi is the requested bandwidth in Mb/s. The mapping of applications
// to cores is fixed upstream, so communications are anonymous flows
// irrespective of the application that generated them.
package comm

import (
	"fmt"
	"slices"

	"repro/internal/mesh"
)

// Comm is one communication γi = (C_src, C_snk, δ).
type Comm struct {
	// ID identifies the communication within its set; Split preserves it
	// on every fragment so flows can be reassembled.
	ID int
	// Src and Dst are the source and sink cores.
	Src, Dst mesh.Coord
	// Rate is the requested bandwidth δi (Mb/s).
	Rate float64
}

// String renders γ = (src, dst, δ).
func (c Comm) String() string {
	return fmt.Sprintf("γ%d(%v->%v, %.6g)", c.ID, c.Src, c.Dst, c.Rate)
}

// Length returns ℓi, the Manhattan distance from source to sink, which is
// the length of every admissible (shortest) path for the communication.
func (c Comm) Length() int { return mesh.Manhattan(c.Src, c.Dst) }

// Direction returns the quadrant d_i of the communication (Section 3.3).
func (c Comm) Direction() mesh.Quadrant { return mesh.DirectionOf(c.Src, c.Dst) }

// Platform is the minimal core-set view validation needs — satisfied by
// *mesh.Mesh and every topo.Topology, without this package depending on
// either topology machinery or a concrete platform type.
type Platform interface {
	Contains(c mesh.Coord) bool
}

// ValidateOn is Validate against any platform exposing its core set.
func (c Comm) ValidateOn(p Platform) error {
	if !p.Contains(c.Src) {
		return fmt.Errorf("comm %d: source %v outside %v", c.ID, c.Src, p)
	}
	if !p.Contains(c.Dst) {
		return fmt.Errorf("comm %d: sink %v outside %v", c.ID, c.Dst, p)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("comm %d: non-positive rate %g", c.ID, c.Rate)
	}
	if c.Src == c.Dst {
		return fmt.Errorf("comm %d: source equals sink %v", c.ID, c.Src)
	}
	return nil
}

// Set is an ordered collection of communications.
type Set []Comm

// Validate checks every communication and ID uniqueness.
func (s Set) Validate(m *mesh.Mesh) error {
	return s.ValidateOn(m)
}

// ValidateOn is Validate against any platform exposing its core set.
// Every generator draws strictly increasing IDs, which are unique without
// any bookkeeping; only a set whose IDs ever fail to increase is re-checked
// from the start with a seen-set, so the first error reported is the same
// either way.
func (s Set) ValidateOn(p Platform) error {
	for i, c := range s {
		if err := c.ValidateOn(p); err != nil {
			return err
		}
		if i > 0 && c.ID <= s[i-1].ID {
			return s.validateUnordered(p)
		}
	}
	return nil
}

// validateUnordered is ValidateOn for sets with IDs in arbitrary order.
func (s Set) validateUnordered(p Platform) error {
	seen := make(map[int]bool, len(s))
	for _, c := range s {
		if err := c.ValidateOn(p); err != nil {
			return err
		}
		if seen[c.ID] {
			return fmt.Errorf("comm: duplicate id %d", c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}

// TotalRate returns Σ δi, the aggregate requested bandwidth.
func (s Set) TotalRate() float64 {
	total := 0.0
	for _, c := range s {
		total += c.Rate
	}
	return total
}

// TotalVolume returns Σ δi·ℓi, the aggregate link-bandwidth demand: every
// single-path routing produces link loads summing to exactly this value
// (each communication loads ℓi links with δi each).
func (s Set) TotalVolume() float64 {
	total := 0.0
	for _, c := range s {
		total += c.Rate * float64(c.Length())
	}
	return total
}

// Order is a processing order for greedy heuristics.
type Order int

// The orders considered in Section 5: the paper reports that decreasing
// weight "gives the best results"; the alternatives are kept for the
// ordering ablation benchmark.
const (
	// ByWeightDesc sorts by decreasing rate δi (the paper's choice).
	ByWeightDesc Order = iota
	// ByWeightAsc sorts by increasing rate.
	ByWeightAsc
	// ByLengthDesc sorts by decreasing Manhattan length.
	ByLengthDesc
	// ByDensityDesc sorts by decreasing δi/ℓi.
	ByDensityDesc
)

// String names the order.
func (o Order) String() string {
	switch o {
	case ByWeightDesc:
		return "weight-desc"
	case ByWeightAsc:
		return "weight-asc"
	case ByLengthDesc:
		return "length-desc"
	case ByDensityDesc:
		return "density-desc"
	}
	return fmt.Sprintf("Order(%d)", int(o))
}

// Sorted returns a copy of the set sorted by the given order. Ties break
// by ID so the result is deterministic.
func (s Set) Sorted(o Order) Set {
	return s.SortedInto(nil, o)
}

// SortedInto is Sorted building into dst (reusing its backing array) — the
// scratch-reusing form for the greedy heuristics' per-call ordering. The
// ordering is identical to Sorted: the requested order with ties broken by
// increasing ID, a total order on valid (unique-ID) sets.
func (s Set) SortedInto(dst Set, o Order) Set {
	out := append(dst[:0], s...)
	less := func(a, b Comm) bool { return a.Rate > b.Rate }
	switch o {
	case ByWeightAsc:
		less = func(a, b Comm) bool { return a.Rate < b.Rate }
	case ByLengthDesc:
		less = func(a, b Comm) bool { return a.Length() > b.Length() }
	case ByDensityDesc:
		less = func(a, b Comm) bool {
			la, lb := a.Length(), b.Length()
			if la == 0 || lb == 0 {
				return la > lb
			}
			return a.Rate/float64(la) > b.Rate/float64(lb)
		}
	}
	slices.SortFunc(out, func(a, b Comm) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return a.ID - b.ID
	})
	return out
}

// Split divides a communication into parts with the given rates, all
// sharing γi's endpoints and ID, per the s-MP rule of Section 3.3:
// Σ parts = δi. It returns an error if the rates do not sum to the
// original (within 1e-9) or any part is non-positive.
func (c Comm) Split(rates []float64) ([]Comm, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("comm %d: empty split", c.ID)
	}
	sum := 0.0
	for _, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("comm %d: non-positive split rate %g", c.ID, r)
		}
		sum += r
	}
	if diff := sum - c.Rate; diff > 1e-9 || diff < -1e-9 {
		return nil, fmt.Errorf("comm %d: split rates sum to %g, want %g", c.ID, sum, c.Rate)
	}
	out := make([]Comm, len(rates))
	for i, r := range rates {
		out[i] = Comm{ID: c.ID, Src: c.Src, Dst: c.Dst, Rate: r}
	}
	return out, nil
}

// AppendSplitEqual appends the s equal fragments of the communication to
// dst and returns the extended slice: same ID and endpoints, Rate/s
// each. Appending lets the s-MP solvers, which fragment every
// communication of every trial, reuse one pooled buffer.
func (c Comm) AppendSplitEqual(dst []Comm, s int) ([]Comm, error) {
	if s < 1 {
		return dst, fmt.Errorf("comm %d: split count %d < 1", c.ID, s)
	}
	r := c.Rate / float64(s)
	if r <= 0 {
		return dst, fmt.Errorf("comm %d: non-positive split rate %g", c.ID, r)
	}
	for i := 0; i < s; i++ {
		dst = append(dst, Comm{ID: c.ID, Src: c.Src, Dst: c.Dst, Rate: r})
	}
	return dst, nil
}
