package heur

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/mesh"
	"repro/internal/route"
	"repro/internal/solve"
)

// SA is a simulated-annealing single-path refiner — an extension beyond
// the paper's five constructive heuristics (its conclusion calls for
// exploring the gap to optimal). It seeds the search with the best
// routing among TB, XYI and PR, then perturbs one communication at a time
// onto a random two-bend path, accepting worsening moves with a
// geometrically cooled Boltzmann probability. The energy is the pseudo
// power (continuous extension past the top frequency) plus a steep
// per-unit overload penalty, so the search simultaneously repairs
// feasibility and reduces power. Deterministic for a fixed Seed.
//
// The energy account runs on the tracker's aggregate observer: the
// running pseudo-power and excess totals are maintained by the tracker on
// every load change (an O(1) read per accepted move), resynced to an
// exact fresh sum whenever a new best is recorded and again when the best
// configuration is restored — unchecked, the accumulated float drift of
// thousands of accepted moves could mis-rank states near ties.
//
// Options.Seed drives the perturbation stream (default 1), Options.SAIters
// is the move budget (default 300 moves per communication) and
// Options.Stop, when non-nil, is polled every stopStride anneal moves (and
// once per hill-climb pass); true abandons the solve with
// solve.ErrStopped. The poll never touches the RNG, so an unstopped run's
// routing is byte-identical with or without the hook.
type SA struct{}

// saSeeds are the constructive heuristics whose best routing seeds the
// anneal.
var saSeeds = []solve.Solver{TB{}, XYI{}, PR{}}

// stopStride is the anneal loop's Stop poll period: coarse enough that
// an always-false predicate is noise next to a move evaluation, fine
// enough that a deadline binds within microseconds.
const stopStride = 64

// Name returns "SA".
func (SA) Name() string { return "SA" }

// Route implements solve.Solver.
func (h SA) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, ws, err := prepare(h.Name(), in, o)
	if err != nil {
		return route.Routing{}, err
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	iters := o.SAIters
	if iters == 0 {
		iters = 300 * len(in.Comms)
	}

	// Seed routing: best of the strongest constructive heuristics. The
	// seed's paths land in (or are copied into) the workspace's slots.
	o.Workspace = ws
	start, err := bestOf(h.Name(), saSeeds, in, o)
	if err != nil {
		return route.Routing{}, err
	}
	ps := ws.Paths()
	ps.ResetFor(in.Comms)
	for _, f := range start.Flows {
		ps.Set(f.Comm.ID, f.Path)
	}
	loads := ws.Tracker()
	for _, f := range start.Flows {
		loads.AddPath(f.Path, f.Comm.Rate)
	}
	if len(in.Comms) == 0 {
		return singlePathRouting(in, ws), nil
	}
	sc := scratchOf(ws)
	ev := evaluatorFor(ws, in.Model)

	// Overload penalty per unit of excess bandwidth: far above any
	// marginal dynamic saving, so feasibility repairs dominate the
	// scalar annealing acceptance.
	penalty := 10 * (in.Model.Pleak + in.Model.Dynamic(in.Model.MaxBW)) / in.Model.MaxBW

	// Candidate and incumbent share their endpoints, so their common
	// prefix and suffix links carry a net delta of exactly zero: trimming
	// them before evaluation (and application) leaves the effect — and
	// the accepted loads — unchanged while the hot loop touches only the
	// differing middle.
	trim := func(old, new route.Path) (a, bo, bn int) {
		bo, bn = len(old), len(new)
		n := min(bo, bn)
		for a < n && old[a] == new[a] {
			a++
		}
		for bo > a && bn > a && old[bo-1] == new[bn-1] {
			bo--
			bn--
		}
		return a, bo, bn
	}
	moveEffect := func(old, new route.Path, rate float64) swapEffect {
		a, bo, bn := trim(old, new)
		return swapEffectOf(in.Mesh, ev, loads, old[a:bo], new[a:bn], rate, sc, math.Inf(1))
	}
	applyMove := func(old, new route.Path, rate float64) {
		a, bo, bn := trim(old, new)
		loads.AddPath(old[a:bo], -rate)
		loads.AddPath(new[a:bn], rate)
	}

	// The tracker maintains the objective totals from here on.
	loads.Observe(ev)
	var cur swapEffect
	cur.power, cur.excess = loads.Aggregates()
	best := cur
	snapshotPaths(&sc.bestPaths, ps, in)

	rng := rand.New(rand.NewSource(seed))
	// Initial temperature: the per-link power scale.
	temp := in.Model.Pleak + in.Model.Dynamic(in.Model.MaxBW)
	cooling := math.Pow(1e-4, 1.0/float64(iters)) // temp decays to 1e-4×
	comms := in.Comms

	// Enumerate every two-bend candidate of every communication once into
	// the pooled arena: the anneal loop draws ~300 candidates per
	// communication, so per-draw path construction amortizes away.
	total := 0
	for _, c := range comms {
		total += twoBendCountOf(c.Src, c.Dst) * c.Length()
	}
	arena := sc.tbArena[:0]
	if cap(arena) < total {
		arena = make(route.Path, 0, total)
	}
	if cap(sc.tbPaths) < len(comms) {
		sc.tbPaths = make([][]route.Path, len(comms))
	}
	tb := sc.tbPaths[:len(comms)]
	for pos, c := range comms {
		n := twoBendCountOf(c.Src, c.Dst)
		if cap(tb[pos]) < n {
			tb[pos] = make([]route.Path, n)
		}
		tb[pos] = tb[pos][:n]
		for k := 0; k < n; k++ {
			s := len(arena)
			arena = appendNthTwoBend(arena, c.Src, c.Dst, k)
			tb[pos][k] = arena[s:len(arena):len(arena)]
		}
	}
	sc.tbArena = arena
	sc.tbPaths = tb

	for it := 0; it < iters; it++ {
		if o.Stop != nil && it%stopStride == 0 && o.Stop() {
			return route.Routing{}, solve.ErrStopped
		}
		temp *= cooling
		pos := rng.Intn(len(comms))
		c := comms[pos]
		next := tb[pos][rng.Intn(len(tb[pos]))]
		old := ps.Get(c.ID)
		if slices.Equal(old, next) {
			continue
		}
		eff := moveEffect(old, next, c.Rate)
		delta := eff.power + penalty*eff.excess
		accept := delta <= 0
		if !accept {
			// Draw unconditionally so the perturbation stream matches the
			// historical one draw per uphill proposal; moves more than 40
			// temperatures uphill (acceptance probability < 4e-18) skip
			// only the exponential.
			r := rng.Float64()
			accept = delta < 40*temp && r < math.Exp(-delta/temp)
		}
		if accept {
			applyMove(old, next, c.Rate)
			ps.SetCopy(c.ID, next)
			cur.power, cur.excess = loads.Aggregates()
			if cur.betterThan(best) {
				// Candidate best: resync the running totals and re-compare
				// before recording, so drift in the incremental sums can
				// neither enshrine a not-actually-better state nor become
				// the bar later states are compared against. best always
				// holds exact totals (the initial state comes from
				// Observe's fresh sum), keeping the never-worse-than-seed
				// floor intact.
				cur.power, cur.excess = loads.RecomputeAggregates()
				if cur.betterThan(best) {
					best = cur
					snapshotPaths(&sc.bestPaths, ps, in)
				}
			}
		}
	}

	// Restore the best configuration seen and resync the energy account
	// from a fresh exact sum, then hill-climb: only strict lexicographic
	// improvements, so the result is never worse than the seed routing
	// and is locally optimal over two-bend moves.
	for _, c := range comms {
		ps.SetCopy(c.ID, sc.bestPaths.Get(c.ID))
	}
	loads.Reset() // detaches the observer
	for _, c := range comms {
		loads.AddPath(ps.Get(c.ID), c.Rate)
	}
	loads.Observe(ev) // re-attach: exact totals of the restored routing

	// The sweep revisits only communications whose evaluation could have
	// changed: every load a two-bend candidate of c can touch lies inside
	// c's bounding box (Manhattan paths never leave it), so a
	// communication stays clean until some applied move changes a load in
	// its box. The first sweep examines everything.
	if cap(sc.needEval) < len(comms) {
		sc.needEval = make([]bool, len(comms))
	}
	sc.needEval = sc.needEval[:len(comms)]
	for i := range sc.needEval {
		sc.needEval[i] = true
	}
	pending := len(comms)
	markDirty := func(old, new route.Path) {
		for pos, c2 := range comms {
			if sc.needEval[pos] {
				continue
			}
			box := mesh.BoxOf(c2.Src, c2.Dst)
			if pathTouchesBox(box, old) || pathTouchesBox(box, new) {
				sc.needEval[pos] = true
				pending++
			}
		}
	}
	for pending > 0 {
		if o.Stop != nil && o.Stop() {
			return route.Routing{}, solve.ErrStopped
		}
		for pos, c := range comms {
			if !sc.needEval[pos] {
				continue
			}
			sc.needEval[pos] = false
			pending--
			old := ps.Get(c.ID)
			for _, cand := range tb[pos] {
				if slices.Equal(old, cand) {
					continue
				}
				if eff := moveEffect(old, cand, c.Rate); eff.improves() {
					applyMove(old, cand, c.Rate)
					markDirty(old, cand)
					ps.SetCopy(c.ID, cand)
					old = ps.Get(c.ID)
				}
			}
		}
	}
	return singlePathRouting(in, ws), nil
}

// pathTouchesBox reports whether any link of the path lies inside the box
// (both endpoints contained).
func pathTouchesBox(box mesh.Box, p route.Path) bool {
	for _, l := range p {
		if box.Contains(l.From) && box.Contains(l.To) {
			return true
		}
	}
	return false
}

// snapshotPaths copies the current path of every communication into dst.
func snapshotPaths(dst *route.PathSet, src *route.PathSet, in solve.Instance) {
	dst.ResetFor(in.Comms)
	for _, c := range in.Comms {
		dst.SetCopy(c.ID, src.Get(c.ID))
	}
}
