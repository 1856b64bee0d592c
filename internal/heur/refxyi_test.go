package heur

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// refXYI is the XY-Improver in its set-aside-and-reactivate formulation,
// kept as the differential oracle of XYI: a link that yields no
// improvement is set aside on a local list, and after every applied move
// every set-aside link is pushed back into the heap, so each one is
// evaluated again whether or not anything it read changed. Candidates
// are always evaluated in full (swapEffectOf, both sums), never pruned.
func refXYI(in solve.Instance, ws *route.Workspace) route.Routing {
	ws.Bind(in.Mesh)
	ps := ws.Paths()
	ps.ResetFor(in.Comms)
	loads := ws.Tracker()
	sc := scratchOf(ws)
	ev := evaluatorFor(ws, in.Model)
	loads.EnableIncidence()
	for pos, c := range in.Comms {
		p := route.AppendXY(ps.Acquire(c.ID, c.Length()), c.Src, c.Dst)
		ps.Set(c.ID, p)
		loads.IncludePath(pos, p, c.Rate)
	}
	loads.Observe(ev)

	var aside []int
	h := &sc.heap
	h.Init(loads)
	for {
		lid, ok := h.Pop()
		if !ok {
			break
		}
		l := in.Mesh.LinkByID(lid)
		bestPos, bestLo, bestHi := -1, 0, 0
		var best swapEffect
		for _, pos := range loads.MembersOn(lid) {
			c := in.Comms[pos]
			p := ps.Get(c.ID)
			span, lo, hi, ok := sc.moveOff(p, l)
			if !ok {
				continue
			}
			e := swapEffectOf(in.Mesh, ev, loads, p[lo:hi+1], span, c.Rate, sc, math.Inf(1))
			if e.improves() && (bestPos < 0 || e.betterThan(best)) {
				bestPos, bestLo, bestHi, best = int(pos), lo, hi, e
				sc.cand, sc.best = sc.best, sc.cand
			}
		}
		if bestPos < 0 {
			aside = append(aside, lid)
			continue
		}
		c := in.Comms[bestPos]
		old := ps.Get(c.ID)
		full := append(route.Path{}, old[:bestLo]...)
		full = append(full, sc.best...)
		full = append(full, old[bestHi+1:]...)
		loads.ExcludePath(bestPos, old, c.Rate)
		loads.IncludePath(bestPos, full, c.Rate)
		for _, pl := range old {
			h.Push(in.Mesh.LinkIDFast(pl))
		}
		for _, pl := range full {
			h.Push(in.Mesh.LinkIDFast(pl))
		}
		for _, id := range aside {
			h.Push(id)
		}
		aside = aside[:0]
		ps.SetCopy(c.ID, full)
	}
	return singlePathRouting(in, ws)
}

// refXYISeeds is the number of seeds per XYI differential cell; the race
// build lowers it.
var refXYISeeds = 30

// XYI routes every instance of the matrix exactly as the reference
// XY-Improver does, under the discrete and the continuous model, on one
// reused workspace per cell (the reference gets its own).
func TestXYIMatchesReference(t *testing.T) {
	models := []power.Model{power.KimHorowitz(), power.KimHorowitzContinuous()}
	refCases(t, []int{1, 5, 10, 20, 30, 50, 70, 90, 150}, refXYISeeds, func(t *testing.T, m *mesh.Mesh, sets []comm.Set) {
		ws, refWS := route.NewWorkspace(), route.NewWorkspace()
		for seed, set := range sets {
			for _, model := range models {
				in := solve.Instance{Mesh: m, Model: model, Comms: set}
				want := refXYI(in, refWS)
				got, err := XYI{}.Route(in, solve.Options{Workspace: ws})
				if err != nil {
					t.Fatalf("seed %d continuous=%v: %v", seed, model.Continuous(), err)
				}
				if err := samePaths(got, want); err != nil {
					t.Fatalf("seed %d continuous=%v: %v", seed, model.Continuous(), err)
				}
			}
		}
	})
}
