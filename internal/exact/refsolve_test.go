package exact

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// This file preserves the pre-workspace branch-and-bound (renamed) as a
// test-only reference implementation. The differential tests pin the
// rebuilt solver against it: same feasibility verdict, same optimal
// power, on every instance — the PR 5 tradition of keeping the
// slow-but-simple solver around to certify the fast one.
//
// Two latent bugs of the original are handled here:
//   - refSolve keeps the original's off-by-one verbatim: a search that
//     finishes on exactly refMaxStates states is reported as truncated;
//     the rebuilt solver fixes this (see TestMaxStatesBoundary), and the
//     differential harness only compares instances the reference
//     completes under budget.
//   - The original's subtract-back backtracking (AddPath with -rate)
//     leaves float dust (~1e-13) on emptied links, with two corruptions:
//     lowerBound tested `load > 0` and charged Pleak per dust link,
//     making the bound inadmissible (it could, and on random rates did,
//     prune the true optimum); and the leaf's loads.Power counted dust
//     links as active at minimum frequency, inflating — and misordering —
//     leaf scores. The reference deviates minimally to be a sound oracle:
//     the bound scan uses the loadEps threshold, and leaves are scored on
//     freshly accumulated loads. The rebuilt solver avoids the dust
//     altogether by restoring loads bitwise on backtrack.
const refMaxStates = 5_000_000

func refSolve(m *mesh.Mesh, model power.Model, set comm.Set) (route.Routing, bool, error) {
	if err := set.Validate(m); err != nil {
		return route.Routing{}, false, err
	}
	// Heaviest first: conflicts surface near the root, pruning earlier.
	order := set.Sorted(comm.ByWeightDesc)
	paths := make([][]route.Path, len(order))
	for i, c := range order {
		enum := m.EnumeratePaths(c.Src, c.Dst)
		paths[i] = make([]route.Path, len(enum))
		for j, p := range enum {
			paths[i][j] = route.Path(p)
		}
	}

	b := &refBB{m: m, model: model, order: order, paths: paths,
		loads: route.NewLoadTrackerTopo(m), bestPower: math.Inf(1)}
	b.choice = make([]int, len(order))
	b.bestChoice = make([]int, len(order))
	b.search(0)
	if b.states >= refMaxStates {
		return route.Routing{}, false, fmt.Errorf("exact: search exceeded %d states", refMaxStates)
	}
	if math.IsInf(b.bestPower, 1) {
		return route.Routing{}, false, nil
	}
	flows := make([]route.Flow, len(order))
	for i, c := range order {
		flows[i] = route.Flow{Comm: c, Path: paths[i][b.bestChoice[i]]}
	}
	return route.Routing{Topo: m, Flows: flows}, true, nil
}

type refBB struct {
	m          *mesh.Mesh
	model      power.Model
	order      comm.Set
	paths      [][]route.Path
	loads      *route.LoadTracker
	choice     []int
	bestChoice []int
	bestPower  float64
	states     int
}

func (b *refBB) search(i int) {
	if b.states >= refMaxStates {
		return
	}
	b.states++
	if i == len(b.order) {
		// Deviation (see file comment): evaluate the leaf on freshly
		// accumulated loads. b.loads carries subtract-back dust on
		// emptied links, which Model.Total counts as active at minimum
		// frequency (+Pleak +Dynamic(fmin) each) — the original
		// therefore both mis-scored and mis-ranked leaves.
		fresh := route.NewLoadTrackerTopo(b.m)
		for k, c := range b.order[:i] {
			fresh.AddPath(b.paths[k][b.choice[k]], c.Rate)
		}
		breakdown, err := fresh.Power(b.model)
		if err != nil {
			return // infeasible leaf
		}
		if p := breakdown.Total(); p < b.bestPower {
			b.bestPower = p
			copy(b.bestChoice, b.choice)
		}
		return
	}
	if b.lowerBound(i) >= b.bestPower {
		return
	}
	c := b.order[i]
	for j, p := range b.paths[i] {
		if b.overloads(p, c.Rate) {
			continue
		}
		b.loads.AddPath(p, c.Rate)
		b.choice[i] = j
		b.search(i + 1)
		b.loads.AddPath(p, -c.Rate)
	}
}

// overloads reports whether adding rate along p violates bandwidth.
func (b *refBB) overloads(p route.Path, rate float64) bool {
	for _, l := range p {
		if b.loads.Load(l)+rate > b.model.MaxBW+1e-9 {
			return true
		}
	}
	return false
}

// lowerBound returns an admissible bound on the best completion of the
// current partial routing: the static power of already-active links plus
// the continuous-relaxation dynamic power of the current loads, plus for
// every unrouted communication the cheapest continuous dynamic increment
// over its paths evaluated at the current loads.
func (b *refBB) lowerBound(i int) float64 {
	cont := b.model
	cont.Freqs = nil // continuous relaxation
	lb := 0.0
	for id := 0; id < b.m.LinkIDSpace(); id++ {
		if load := b.loads.LoadID(id); load > loadEps {
			lb += cont.Pleak + cont.Dynamic(load)
		}
	}
	for ; i < len(b.order); i++ {
		c := b.order[i]
		best := math.Inf(1)
		for _, p := range b.paths[i] {
			inc := 0.0
			for _, l := range p {
				load := b.loads.Load(l)
				inc += cont.Dynamic(load+c.Rate) - cont.Dynamic(load)
			}
			if inc < best {
				best = inc
			}
		}
		lb += best
	}
	return lb
}
