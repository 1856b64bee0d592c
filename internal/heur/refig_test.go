package heur

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// refIG is the Improved Greedy in its re-enumerating formulation, kept as
// the differential oracle of IG: the ideal shares walk AppendFrontierLinks
// link by link, and every candidate's power-to-go bound rebuilds the
// frontier of each remaining diagonal of box(next, dst) and scans it for
// the least-loaded link.
func refIG(in solve.Instance, ws *route.Workspace, order comm.Order) route.Routing {
	ws.Bind(in.Mesh)
	ps := ws.Paths()
	ps.ResetFor(in.Comms)
	loads := ws.Tracker()
	sc := scratchOf(ws)
	ev := evaluatorFor(ws, in.Model)
	var frontier []mesh.Link
	for _, c := range in.Comms {
		frontier = refAddIdealShare(in.Mesh, loads, frontier, c, +1)
	}
	for _, c := range sc.orderedInto(in.Comms, order) {
		frontier = refAddIdealShare(in.Mesh, loads, frontier, c, -1)
		var p route.Path
		p, frontier = refIGPathInto(ps.Acquire(c.ID, c.Length()), in, loads, frontier, ev, c)
		loads.AddPath(p, c.Rate)
		ps.Set(c.ID, p)
	}
	return singlePathRouting(in, ws)
}

// refAddIdealShare adds (sign=+1) or removes (sign=-1) c's Figure-3
// virtual pre-routing: rate/|frontier(t)| on each link of each step t.
func refAddIdealShare(m *mesh.Mesh, loads *route.LoadTracker, frontier []mesh.Link, c comm.Comm, sign float64) []mesh.Link {
	for t := 0; t < c.Length(); t++ {
		frontier = m.AppendFrontierLinks(frontier[:0], c.Src, c.Dst, t)
		share := sign * c.Rate / float64(len(frontier))
		for _, l := range frontier {
			loads.Add(l, share)
		}
	}
	return frontier
}

// refIGPathInto builds c's path hop by hop, scoring each candidate with
// its link's power plus, for every remaining diagonal of box(next, dst),
// the power of its least-loaded link with c on it.
func refIGPathInto(p route.Path, in solve.Instance, loads *route.LoadTracker, frontier []mesh.Link, ev *power.Evaluator, c comm.Comm) (route.Path, []mesh.Link) {
	p = greedyPathInto(p, c, func(cand mesh.Link, next mesh.Coord) float64 {
		bound := loads.LinkPowerWithEv(ev, cand, c.Rate)
		rest := comm.Comm{ID: c.ID, Src: next, Dst: c.Dst, Rate: c.Rate}
		for t := 0; t < rest.Length(); t++ {
			best := -1.0
			frontier = in.Mesh.AppendFrontierLinks(frontier[:0], rest.Src, rest.Dst, t)
			for _, l := range frontier {
				if load := loads.Load(l); best < 0 || load < best {
					best = load
				}
			}
			if best >= 0 {
				p, ok := ev.LinkPowerOK(best + c.Rate)
				if !ok {
					p = inf
				}
				bound += p
			}
		}
		return bound
	})
	return p, frontier
}

// refIGSeeds is the number of seeds per IG differential cell; the race
// build lowers it.
var refIGSeeds = 30

// igOrders are the processing orders IG accepts.
var igOrders = []comm.Order{comm.ByWeightDesc, comm.ByWeightAsc, comm.ByLengthDesc, comm.ByDensityDesc}

// IG routes every instance of the matrix exactly as the reference
// Improved Greedy does, under the discrete and the continuous model and
// every processing order, on one reused workspace per cell (the
// reference gets its own).
func TestIGMatchesReference(t *testing.T) {
	models := []power.Model{power.KimHorowitz(), power.KimHorowitzContinuous()}
	refCases(t, []int{1, 5, 20, 50, 90, 150}, refIGSeeds, func(t *testing.T, m *mesh.Mesh, sets []comm.Set) {
		ws, refWS := route.NewWorkspace(), route.NewWorkspace()
		for seed, set := range sets {
			for _, model := range models {
				in := solve.Instance{Mesh: m, Model: model, Comms: set}
				for _, order := range igOrders {
					want := refIG(in, refWS, order)
					got, err := IG{}.Route(in, solve.Options{Order: order, Workspace: ws})
					if err != nil {
						t.Fatalf("seed %d continuous=%v order %v: %v", seed, model.Continuous(), order, err)
					}
					if err := samePaths(got, want); err != nil {
						t.Fatalf("seed %d continuous=%v order %v: %v", seed, model.Continuous(), order, err)
					}
				}
			}
		}
	})
}
