package route

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/topo"
)

// LoadTracker is the mutable link-load account the greedy heuristics work
// against: O(1) add/remove/query by link, plus power-oriented queries.
// Loads are guarded against drifting negative by clamping tiny negative
// residues from floating-point removal back to zero.
//
// Two optional accelerations serve the refinement heuristics' hot loops
// (both off by default and switched off again by Reset):
//
//   - An incidence index (Observe-independent): EnableIncidence plus the
//     IncludePath/ExcludePath pair maintain, per link, the sorted list of
//     member ids whose path currently crosses it, so a local-search
//     candidate scan visits only the crossing flows instead of every
//     communication (MembersOn).
//   - An aggregate observer: Observe attaches a compiled power.Evaluator
//     and keeps running totals of the pseudo-power and overload excess of
//     all tracked loads, maintained incrementally on every Add, so a
//     refinement loop reads its objective in O(1) (Aggregates). The
//     running totals accumulate float rounding across many updates;
//     RecomputeAggregates resyncs them to the exact fresh sum.
type LoadTracker struct {
	// mesh is non-nil when tracking a mesh platform and keeps the hot
	// loops on the closed-form LinkIDFast; topo is the platform for
	// every topology (for a mesh tracker it holds the same mesh).
	mesh  *mesh.Mesh
	topo  topo.Topology
	loads []float64
	// entries is the reusable sort scratch of LinksByLoadDescInto.
	entries []loadEntry

	// inc[id] is the sorted member list of link id when the incidence
	// index is enabled (incOn); the backing arrays persist across solves.
	inc   [][]int32
	incOn bool

	// ev, when non-nil, is the attached aggregate observer with its
	// running totals; pseudoOf caches each link's current pseudo-power
	// (valid only while observing), so "before" probes of swap
	// evaluations are an array read instead of an evaluator call.
	ev        *power.Evaluator
	aggPower  float64
	aggExcess float64
	pseudoOf  []float64
}

// loadEntry pairs a dense link id with its load for the descending sort.
type loadEntry struct {
	id   int
	load float64
}

// NewLoadTrackerTopo returns an empty tracker for the platform.
func NewLoadTrackerTopo(tp topo.Topology) *LoadTracker {
	t := &LoadTracker{loads: make([]float64, tp.LinkIDSpace())}
	t.bind(tp)
	return t
}

// bind points the tracker at tp, which must share the link id space of
// the platform it was built for; a mesh keeps the hot loops on its
// closed-form link ids.
func (t *LoadTracker) bind(tp topo.Topology) {
	t.topo = tp
	t.mesh, _ = tp.(*mesh.Mesh)
}

// linkID resolves a link's dense id on the tracked platform.
func (t *LoadTracker) linkID(l mesh.Link) int {
	if t.mesh != nil {
		return t.mesh.LinkID(l)
	}
	return t.topo.LinkID(l)
}

// linkIDFast is linkID for links valid by construction: the mesh keeps
// its check-free closed form, other topologies fall back to LinkID.
func (t *LoadTracker) linkIDFast(l mesh.Link) int {
	if t.mesh != nil {
		return t.mesh.LinkIDFast(l)
	}
	return t.topo.LinkID(l)
}

// linkByID inverts linkID on the tracked platform.
func (t *LoadTracker) linkByID(id int) mesh.Link {
	if t.mesh != nil {
		return t.mesh.LinkByID(id)
	}
	return t.topo.LinkByID(id)
}

// Add adds rate to the load of link l (rate may be negative to remove).
func (t *LoadTracker) Add(l mesh.Link, rate float64) {
	t.AddID(t.linkID(l), rate)
}

// AddID is Add by dense link id.
func (t *LoadTracker) AddID(id int, rate float64) {
	old := t.loads[id]
	next := old + rate
	if next < 0 {
		if next < -1e-6 {
			panic(fmt.Sprintf("route: load of %v driven to %g", t.linkByID(id), next))
		}
		next = 0
	}
	t.loads[id] = next
	if t.ev != nil {
		np := t.ev.Pseudo(next)
		t.aggPower += np - t.pseudoOf[id]
		t.pseudoOf[id] = np
		t.aggExcess += t.ev.Excess(next) - t.ev.Excess(old)
	}
}

// AddPath adds rate along every link of the path.
func (t *LoadTracker) AddPath(p Path, rate float64) {
	for _, l := range p {
		t.Add(l, rate)
	}
}

// Load returns the current load of link l.
func (t *LoadTracker) Load(l mesh.Link) float64 { return t.loads[t.linkID(l)] }

// LoadID returns the current load of the link with the given dense id.
func (t *LoadTracker) LoadID(id int) float64 { return t.loads[id] }

// LoadsView returns the tracker's internal load vector without copying.
// The slice is indexed by mesh.LinkID, must not be mutated, and is
// invalidated by the next tracker mutation.
func (t *LoadTracker) LoadsView() []float64 { return t.loads }

// Reset zeroes all loads and switches off the incidence index and the
// aggregate observer.
func (t *LoadTracker) Reset() {
	for i := range t.loads {
		t.loads[i] = 0
	}
	t.incOn = false
	t.ev = nil
	t.aggPower, t.aggExcess = 0, 0
}

// EnableIncidence switches the link→member incidence index on, emptied.
// While enabled, route all load changes through IncludePath/ExcludePath so
// the index stays in sync with the loads.
func (t *LoadTracker) EnableIncidence() {
	if len(t.inc) != len(t.loads) {
		t.inc = make([][]int32, len(t.loads))
	}
	for id := range t.inc {
		t.inc[id] = t.inc[id][:0]
	}
	t.incOn = true
}

// IncludePath adds rate along the path and records member on every link of
// it. Members are arbitrary small non-negative ints (the heuristics use
// the communication's position in the instance set); MembersOn returns
// them in ascending order, so an incidence-driven scan visits crossing
// flows in the same relative order as a full scan of the set.
func (t *LoadTracker) IncludePath(member int, p Path, rate float64) {
	for _, l := range p {
		id := t.linkIDFast(l)
		t.AddID(id, rate)
		if t.incOn {
			list := t.inc[id]
			i, found := slices.BinarySearch(list, int32(member))
			if !found {
				t.inc[id] = slices.Insert(list, i, int32(member))
			}
		}
	}
}

// ExcludePath removes rate along the path and removes member from every
// link of it — the inverse of IncludePath.
func (t *LoadTracker) ExcludePath(member int, p Path, rate float64) {
	for _, l := range p {
		id := t.linkIDFast(l)
		t.AddID(id, -rate)
		if t.incOn {
			list := t.inc[id]
			if i, found := slices.BinarySearch(list, int32(member)); found {
				t.inc[id] = slices.Delete(list, i, i+1)
			}
		}
	}
}

// MembersOn returns the sorted member ids whose included path crosses the
// link with the given dense id. The slice aliases tracker state: it is
// valid until the next IncludePath/ExcludePath call and must not be
// mutated.
func (t *LoadTracker) MembersOn(id int) []int32 {
	if !t.incOn {
		panic("route: MembersOn without EnableIncidence")
	}
	return t.inc[id]
}

// Observe attaches ev as the tracker's aggregate observer and computes the
// exact aggregate totals of the current loads. Subsequent Adds maintain
// the totals incrementally; Reset detaches.
func (t *LoadTracker) Observe(ev *power.Evaluator) {
	t.ev = ev
	t.RecomputeAggregates()
}

// Aggregates returns the running totals of pseudo-power and overload
// excess over all tracked loads, as maintained incrementally since the
// last Observe/RecomputeAggregates. It panics without an observer.
func (t *LoadTracker) Aggregates() (pseudoPower, excess float64) {
	if t.ev == nil {
		panic("route: Aggregates without Observe")
	}
	return t.aggPower, t.aggExcess
}

// RecomputeAggregates resyncs the running totals (and the per-link
// pseudo-power cache) to the exact fresh sum over the load vector in
// link-id order — the float-drift resync point of long refinement loops —
// and returns them.
func (t *LoadTracker) RecomputeAggregates() (pseudoPower, excess float64) {
	if t.ev == nil {
		panic("route: RecomputeAggregates without Observe")
	}
	if len(t.pseudoOf) != len(t.loads) {
		t.pseudoOf = make([]float64, len(t.loads))
	}
	var p, x float64
	for id, load := range t.loads {
		lp := t.ev.Pseudo(load)
		t.pseudoOf[id] = lp
		p += lp
		x += t.ev.Excess(load)
	}
	t.aggPower, t.aggExcess = p, x
	return p, x
}

// Observing reports whether an aggregate observer is attached (and hence
// the PseudoID cache is valid).
func (t *LoadTracker) Observing() bool { return t.ev != nil }

// PseudoID returns the cached pseudo-power of the link with the given
// dense id under the observing evaluator — always bit-identical to
// evaluating the link's current load afresh. Only valid while observing.
func (t *LoadTracker) PseudoID(id int) float64 { return t.pseudoOf[id] }

// MaxLoad returns the largest current load.
func (t *LoadTracker) MaxLoad() float64 {
	max := 0.0
	for _, l := range t.loads {
		if l > max {
			max = l
		}
	}
	return max
}

// LinksByLoadDesc returns every loaded link sorted by decreasing load
// (ties by link id for determinism), the scan order of the XYI and PR
// heuristics.
func (t *LoadTracker) LinksByLoadDesc() []mesh.Link {
	return t.LinksByLoadDescInto(nil)
}

// LinksByLoadDescInto is LinksByLoadDesc building into dst (reusing its
// backing array) and sorting in tracker-owned scratch, so a rescan loop
// pays no allocation per iteration. The ordering is identical to
// LinksByLoadDesc: decreasing load, ties by increasing link id — and to
// the pop order of a LoadHeap over the same tracker.
func (t *LoadTracker) LinksByLoadDescInto(dst []mesh.Link) []mesh.Link {
	t.entries = t.entries[:0]
	for id, load := range t.loads {
		if load > 0 {
			t.entries = append(t.entries, loadEntry{id, load})
		}
	}
	slices.SortFunc(t.entries, func(a, b loadEntry) int {
		switch {
		case a.load > b.load:
			return -1
		case a.load < b.load:
			return 1
		default:
			return a.id - b.id
		}
	})
	dst = dst[:0]
	for _, e := range t.entries {
		dst = append(dst, t.linkByID(e.id))
	}
	return dst
}

// Power evaluates the tracked loads under the model.
func (t *LoadTracker) Power(model power.Model) (power.Breakdown, error) {
	return model.Total(t.loads)
}

// SetRouting resets the tracker and accumulates the routing's flows — the
// scratch-reusing form of Routing.Loads for hot loops.
func (t *LoadTracker) SetRouting(r Routing) {
	t.Reset()
	for _, f := range r.Flows {
		t.AddPath(f.Path, f.Comm.Rate)
	}
}

// Evaluate returns the power breakdown and feasibility of the tracked
// loads without allocating: infeasible loads report ok=false instead of
// constructing the overload error that Power returns. It is the
// allocation-free evaluation used by the experiment engine's per-trial
// path.
func (t *LoadTracker) Evaluate(model power.Model) (power.Breakdown, bool) {
	if !model.Feasible(t.loads) {
		return power.Breakdown{}, false
	}
	b, err := model.Total(t.loads)
	if err != nil {
		return power.Breakdown{}, false
	}
	return b, true
}

// LinkPowerWithEv returns the power of link l under the compiled
// evaluator if extra were added to its current load. Infeasible loads
// return +Inf so greedy comparisons naturally avoid them; the error is
// still reported by the final Evaluate. l must be valid by construction:
// its id is read without the validity check.
func (t *LoadTracker) LinkPowerWithEv(ev *power.Evaluator, l mesh.Link, extra float64) float64 {
	p, ok := ev.LinkPowerOK(t.loads[t.linkIDFast(l)] + extra)
	if !ok {
		return inf
	}
	return p
}

// DeltaPowerEv returns the change in link power under the compiled
// evaluator caused by adding extra to link l (infeasible additions
// return +Inf).
func (t *LoadTracker) DeltaPowerEv(ev *power.Evaluator, l mesh.Link, extra float64) float64 {
	load := t.Load(l)
	before, ok := ev.LinkPowerOK(load)
	if !ok {
		return inf
	}
	after, ok := ev.LinkPowerOK(load + extra)
	if !ok {
		return inf
	}
	return after - before
}

var inf = math.Inf(1)
