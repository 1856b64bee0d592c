package exact

import (
	"math"

	"repro/internal/route"
	"repro/internal/solve"
)

// seedIncumbent installs a pre-search incumbent so pruning starts from a
// real power instead of +Inf: the registered BEST heuristic when the
// registry has one (callers that import internal/heur or internal/experiments),
// a cheapest-increment greedy otherwise. The seed routing is replayed on
// the search state and evaluated with the exact leaf scan — the incumbent
// must be the true quantized power or the bound comparison would be
// unsound. While the seed loads are in place, every comm's candidate
// order is re-sorted by continuous increment against them, making the
// search's first descent near-greedy. The state is fully unwound before
// returning; seeding is serial and identical at every worker count.
func (w *Workspace) seedIncumbent(s *searchState, rws *route.Workspace) (seeded bool, seedPower float64) {
	vec := w.heuristicVector(rws)
	if vec == nil {
		vec = w.greedyVector(s)
	}
	if vec == nil {
		return false, 0
	}
	routed := 0
	feasible := true
	for i := range w.order {
		j := int(vec[i])
		if s.overloads(i, j) {
			feasible = false
			break
		}
		s.choice[i] = vec[i]
		s.add(i, j)
		routed++
	}
	if feasible {
		if p, ok := s.leafPower(); ok {
			w.best.offer(p, s.choice)
			seeded, seedPower = true, p
		}
		w.sortCandidates(s, vec)
	}
	for i := routed - 1; i >= 0; i-- {
		s.undo(i)
	}
	return seeded, seedPower
}

// heuristicVector routes the instance with the registered BEST policy and
// maps the resulting flows back onto candidate-path indices. Any mismatch
// — policy missing, routing error, a flow that is not one of the comm's
// Manhattan candidates (e.g. a multi-path split) — returns nil and defers
// to the greedy.
func (w *Workspace) heuristicVector(rws *route.Workspace) []int32 {
	sv, err := solve.Lookup("BEST")
	if err != nil {
		return nil
	}
	r, err := sv.Route(solve.Instance{Mesh: w.mesh, Model: w.model, Comms: w.order}, solve.Options{Workspace: rws})
	if err != nil {
		return nil
	}
	n := len(w.order)
	if len(r.Flows) != n {
		return nil
	}
	w.seedVec = ensureI32(w.seedVec, n)
	for i := range w.seedVec {
		w.seedVec[i] = -1
	}
	for _, f := range r.Flows {
		ci := -1
		for i, c := range w.order {
			if c.ID == f.Comm.ID {
				ci = i
				break
			}
		}
		if ci < 0 || w.seedVec[ci] >= 0 {
			return nil
		}
		j := w.matchCandidate(ci, f.Path)
		if j < 0 {
			return nil
		}
		w.seedVec[ci] = int32(j)
	}
	for _, j := range w.seedVec {
		if j < 0 {
			return nil
		}
	}
	return w.seedVec
}

// matchCandidate returns the canonical candidate index of the path, or -1
// when the path is not one of comm ci's Manhattan candidates.
func (w *Workspace) matchCandidate(ci int, p route.Path) int {
	l := int(w.lens[ci])
	if len(p) != l {
		return -1
	}
	w.linkBuf = ensureI32(w.linkBuf, l)
	for t, lk := range p {
		if !w.mesh.ValidLink(lk) {
			return -1
		}
		w.linkBuf[t] = int32(w.mesh.LinkIDFast(lk))
	}
	np := int(w.npaths[ci])
	base := int(w.arenaOff[ci])
outer:
	for j := 0; j < np; j++ {
		cand := w.arena[base+j*l : base+(j+1)*l]
		for t := range cand {
			if cand[t] != w.linkBuf[t] {
				continue outer
			}
		}
		return j
	}
	return -1
}

// greedyVector builds a feasible routing by giving each comm, heaviest
// first, the candidate with the smallest continuous power increment
// (static activation included — this is a solution, not a bound). Returns
// nil when the greedy dead-ends; the state is unwound either way.
func (w *Workspace) greedyVector(s *searchState) []int32 {
	n := len(w.order)
	w.seedVec = ensureI32(w.seedVec, n)
	routed := 0
	ok := true
	for i := 0; i < n; i++ {
		rate := w.rate[i]
		bestJ, bestInc := -1, math.Inf(1)
		for j := 0; j < int(w.npaths[i]); j++ {
			if s.overloads(i, j) {
				continue
			}
			inc := 0.0
			for _, l := range w.pathLinks(i, j) {
				inc += w.pleak + w.envDyn(s.loads[l]+rate) - s.contOf[l]
			}
			if inc < bestInc {
				bestInc, bestJ = inc, j
			}
		}
		if bestJ < 0 {
			ok = false
			break
		}
		w.seedVec[i] = int32(bestJ)
		s.choice[i] = int32(bestJ)
		s.add(i, bestJ)
		routed++
	}
	for i := routed - 1; i >= 0; i-- {
		s.undo(i)
	}
	if !ok {
		return nil
	}
	return w.seedVec
}

// sortCandidates orders every comm's candidate list by the continuous
// dynamic increment it would pay against the seed loads with the comm's
// own seed path removed (so its own contribution doesn't bias the
// comparison). The insertion sort is stable, keeping equal-increment
// candidates in canonical index order; the transient load edits here may
// leave float dust, which the caller's frame-based unwind wipes bitwise.
func (w *Workspace) sortCandidates(s *searchState, vec []int32) {
	for i := range w.order {
		rate := w.rate[i]
		own := w.pathLinks(i, int(vec[i]))
		for _, l := range own {
			s.loads[l] -= rate
		}
		cand := w.cand(i)
		w.keys = ensureF64(w.keys, len(cand))
		keys := w.keys[:len(cand)]
		for t, j := range cand {
			sum := 0.0
			for _, l := range w.pathLinks(i, int(j)) {
				load := s.loads[l]
				if load < 0 {
					load = 0
				}
				sum += w.envDyn(load+rate) - w.envDyn(load)
			}
			keys[t] = sum
		}
		for a := 1; a < len(cand); a++ {
			cj, ck := cand[a], keys[a]
			b := a - 1
			for b >= 0 && keys[b] > ck {
				cand[b+1], keys[b+1] = cand[b], keys[b]
				b--
			}
			cand[b+1], keys[b+1] = cj, ck
		}
		for _, l := range own {
			s.loads[l] += rate
		}
	}
}
