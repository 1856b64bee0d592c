package heur

import (
	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// IG is the Improved Greedy heuristic of Section 5.2. All communications
// are first pre-routed virtually, each spread uniformly over every link
// between the successive diagonals of its bounding box (the ideal sharing
// of Figure 3). Communications are then finalized one by one in decreasing
// weight: the pre-routing of the current communication is removed, and a
// single path is built hop by hop, choosing at each step the link whose
// optimistic power-to-go lower bound — the chosen link's power plus, for
// every remaining diagonal, the power of the least-loaded admissible link
// — is smallest. The pre-routed shares of yet-unprocessed communications
// remain on the links, steering early choices away from future congestion.
//
// Loads do not change while one communication is routed, so the bound
// is answered from one table per communication: each core (a, b) of the
// box (mesh.BoxFrame: a hops along u and b along v from the source, out
// of du and dv) holds the least load of its admissible out-links. The
// box of (next, dst) shares the dst corner with the full box, so a core
// inside it has the same admissible out-links as in the full box, and
// with next at (na, nb) its cores on diagonal s are the contiguous range
// a ∈ [max(na, s−dv), min(du, s−nb)] of that table. A candidate's bound
// is then one range minimum per remaining diagonal, summed in the same
// diagonal order, instead of a rebuilt frontier.
//
// Options.Order overrides the finalization order.
type IG struct{}

// Name returns "IG".
func (IG) Name() string { return "IG" }

// Route implements solve.Solver.
func (h IG) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, ws, err := prepare(h.Name(), in, o)
	if err != nil {
		return route.Routing{}, err
	}
	ps := ws.Paths()
	loads := ws.Tracker()
	sc := scratchOf(ws)
	ev := evaluatorFor(ws, in.Model)
	for _, c := range in.Comms {
		addIdealShare(in.Mesh, loads, sc, c, +1)
	}

	for _, c := range sc.orderedInto(in.Comms, o.Order) {
		addIdealShare(in.Mesh, loads, sc, c, -1)
		p := igPathInto(ps.Acquire(c.ID, c.Length()), in, loads, sc, ev, c)
		loads.AddPath(p, c.Rate)
		ps.Set(c.ID, p)
	}
	return singlePathRouting(in, ws), nil
}

// addIdealShare adds (sign=+1) or removes (sign=-1) the Figure-3 virtual
// pre-routing of c: at every step t, δ/|frontier(t)| on each admissible
// link between the t-th and (t+1)-th diagonals of c's bounding box.
func addIdealShare(m *mesh.Mesh, loads *route.LoadTracker, sc *heurScratch, c comm.Comm, sign float64) {
	for t := 0; t < c.Length(); t++ {
		sc.ids = m.AppendFrontierIDs(sc.ids[:0], c.Src, c.Dst, t)
		share := sign * c.Rate / float64(len(sc.ids))
		for _, id := range sc.ids {
			loads.AddID(id, share)
		}
	}
}

// igPathInto builds the single path for c using the power-to-go lower
// bound, appending onto p.
func igPathInto(p route.Path, in solve.Instance, loads *route.LoadTracker, sc *heurScratch, ev *power.Evaluator, c comm.Comm) route.Path {
	f := in.Mesh.BoxFrameOf(c.Src, c.Dst)
	minLoad := sc.minOutLoads(&f, loads)
	ell := c.Length()
	return greedyPathInto(p, c, func(cand mesh.Link, next mesh.Coord) float64 {
		// Power of the candidate link with c on it…
		bound := loads.LinkPowerWithEv(ev, cand, c.Rate)
		// …plus, for each remaining diagonal between next and the sink,
		// the power of the least-loaded link c could still take.
		na, nb := abs(next.U-c.Src.U), abs(next.V-c.Src.V)
		for s := na + nb; s < ell; s++ {
			lo, hi := max(na, s-f.DV), min(f.DU, s-nb)
			best := minLoad[f.Cell(lo, s-lo)]
			for a := lo + 1; a <= hi; a++ {
				if l := minLoad[f.Cell(a, s-a)]; l < best {
					best = l
				}
			}
			p, ok := ev.LinkPowerOK(best + c.Rate)
			if !ok {
				p = inf
			}
			bound += p
		}
		return bound
	})
}

// minOutLoads fills the scratch table of f's cores with the least load of
// each core's admissible out-links (+Inf at the sink, which has none and
// lies on no remaining diagonal) and returns it, indexed by f.Cell.
func (sc *heurScratch) minOutLoads(f *mesh.BoxFrame, loads *route.LoadTracker) []float64 {
	if cap(sc.minLoad) < f.Cells() {
		sc.minLoad = make([]float64, f.Cells())
	}
	out := sc.minLoad[:f.Cells()]
	view := loads.LoadsView()
	for a := 0; a <= f.DU; a++ {
		for b := 0; b <= f.DV; b++ {
			best := inf
			if a < f.DU {
				best = view[f.UID(a, b)]
			}
			if b < f.DV && view[f.VID(a, b)] < best {
				best = view[f.VID(a, b)]
			}
			out[f.Cell(a, b)] = best
		}
	}
	return out
}
