package heur

import (
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// XYI is the XY-Improver heuristic of Section 5.4. It starts from the XY
// routing and repeatedly attacks the most-loaded link: every communication
// crossing that link is tentatively moved off it — a vertical link is
// replaced by the horizontal link entering the same core from the source
// side, a horizontal link by the vertical link leaving the same core
// toward the sink — and the modification that lowers power the most is
// kept. When no modification on a link improves power, the link is set
// aside and the next most-loaded link is tried; after every applied
// improvement every link is back in play, starting from the new
// most-loaded one.
//
// Improvement decisions use a pseudo-power that extends the model's curve
// continuously beyond the top frequency, so the heuristic can climb down
// from the (frequently infeasible) XY start even while some links are
// overloaded; the final routing is still judged by the strict model.
//
// The hot loop runs on the compiled objective engine: candidate scans
// visit only the flows crossing the attacked link (the tracker's
// incidence index), link power probes hit the evaluator's precomputed
// frequency table, and the most-loaded link comes from an indexed heap
// (one entry per link, updated in place by the links a move touched)
// instead of a full re-sort after every applied move. Routings are
// bit-for-bit those of the straightforward scan-all-and-resort
// formulation (pinned by the golden figure tests).
type XYI struct{}

// Name returns "XYI".
func (XYI) Name() string { return "XYI" }

// Route implements Heuristic.
func (h XYI) Route(in Instance) (route.Routing, error) {
	return h.RouteInto(in, route.NewWorkspace())
}

// RouteInto implements WorkspaceRouter.
func (XYI) RouteInto(in Instance, ws *route.Workspace) (route.Routing, error) {
	ps := prepare(in, ws)
	loads := ws.Tracker()
	sc := scratchOf(ws)
	ev := evaluatorFor(ws, in.Model)
	loads.EnableIncidence()
	for pos, c := range in.Comms {
		p := route.AppendXY(ps.Acquire(c.ID, c.Length()), c.Src, c.Dst)
		ps.Set(c.ID, p)
		loads.IncludePath(pos, p, c.Rate)
	}
	// Observe after seeding: the per-link pseudo-power cache turns every
	// candidate's "before" probe into an array read.
	loads.Observe(ev)

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
		// Only flows currently crossing l can be moved off it; the
		// incidence index lists them in instance order, so the scan is
		// the full per-communication scan with the misses skipped.
		for _, pos := range loads.MembersOn(lid) {
			c := in.Comms[pos]
			p := ps.Get(c.ID)
			span, lo, hi, ok := sc.moveOff(p, l)
			if !ok {
				continue
			}
			// Links outside [lo,hi] are identical in the old and new
			// paths (their net delta is exactly zero), so the effect of
			// the full-path swap equals the effect of the span swap.
			e := swapEffectOf(in.Mesh, ev, loads, p[lo:hi+1], span, c.Rate, sc)
			if e.improves() && (bestPos < 0 || e.betterThan(best)) {
				bestPos, bestLo, bestHi, best = int(pos), lo, hi, e
				// Keep the winning span in sc.best; the next moveOff
				// builds into the other buffer.
				sc.cand, sc.best = sc.best, sc.cand
			}
		}
		if bestPos < 0 {
			h.SetAside(lid)
			continue
		}
		c := in.Comms[bestPos]
		old := ps.Get(c.ID)
		full := append(sc.full[:0], old[:bestLo]...)
		full = append(full, sc.best...)
		full = append(full, old[bestHi+1:]...)
		sc.full = full
		loads.ExcludePath(bestPos, old, c.Rate)
		loads.IncludePath(bestPos, full, c.Rate)
		// Every load the move changed lies on the old or the new path.
		// Re-pushing an unchanged link is a no-op, and the attacked link
		// (popped, so out of the heap) is on the old path and re-enters.
		for _, pl := range old {
			h.Push(in.Mesh.LinkIDFast(pl))
		}
		for _, pl := range full {
			h.Push(in.Mesh.LinkIDFast(pl))
		}
		h.Reactivate()
		ps.SetCopy(c.ID, full)
	}
	return singlePathRouting(in, ws), nil
}

// moveOff applies the Section 5.4 local modification to a Manhattan path
// so that it avoids link l, returning ok=false when the Manhattan
// constraint forbids the move:
//
//   - l vertical: the path must enter l.To horizontally from the source
//     side, so the last horizontal move before the hop over l is postponed
//     to just after it (the vertical sub-column shifts one column toward
//     the source).
//   - l horizontal: the path must leave l.From vertically toward the sink,
//     so the first vertical move after the hop is advanced to just before
//     it (the horizontal sub-row shifts one row toward the sink).
//
// Only the modified span is built (into the scratch's candidate buffer):
// span holds the new links at positions lo..hi, and every link outside the
// span is unchanged — the permuted moves displace the same totals, so the
// coordinates from hi+1 on coincide with the old path's. Candidate
// evaluation therefore touches O(span) links instead of O(path), and only
// an applied winner pays for full-path materialization.
func (sc *heurScratch) moveOff(p route.Path, l mesh.Link) (span route.Path, lo, hi int, ok bool) {
	t := -1
	for i, pl := range p {
		if pl == l {
			t = i
			break
		}
	}
	if t < 0 {
		return nil, 0, 0, false
	}
	out := sc.cand[:0]
	if l.From.V == l.To.V {
		// Vertical hop: find the last horizontal move before it.
		j := -1
		for i := t - 1; i >= 0; i-- {
			if p[i].From.U == p[i].To.U {
				j = i
				break
			}
		}
		if j < 0 {
			return nil, 0, 0, false
		}
		// New span: the vertical run p[j+1..t] shifted onto the source-side
		// column, then the postponed horizontal move.
		cur := p[j].From
		for i := j + 1; i <= t; i++ {
			nc := mesh.Coord{U: cur.U + p[i].To.U - p[i].From.U, V: cur.V}
			out = append(out, mesh.Link{From: cur, To: nc})
			cur = nc
		}
		nc := mesh.Coord{U: cur.U, V: cur.V + p[j].To.V - p[j].From.V}
		out = append(out, mesh.Link{From: cur, To: nc})
		sc.cand = out
		return out, j, t, true
	}
	// Horizontal hop: find the first vertical move after it.
	j := -1
	for i := t + 1; i < len(p); i++ {
		if p[i].From.V == p[i].To.V {
			j = i
			break
		}
	}
	if j < 0 {
		return nil, 0, 0, false
	}
	// New span: the advanced vertical move, then the horizontal run
	// p[t..j-1] shifted one row toward the sink.
	cur := p[t].From
	nc := mesh.Coord{U: cur.U + p[j].To.U - p[j].From.U, V: cur.V}
	out = append(out, mesh.Link{From: cur, To: nc})
	cur = nc
	for i := t; i < j; i++ {
		nc := mesh.Coord{U: cur.U, V: cur.V + p[i].To.V - p[i].From.V}
		out = append(out, mesh.Link{From: cur, To: nc})
		cur = nc
	}
	sc.cand = out
	return out, t, j, true
}

// swapEffect is the consequence of replacing one path with another:
// the change in total overload excess (Σ max(0, load−BW)) and the change
// in pseudo power. Negative values are improvements. Effects compare
// lexicographically — feasibility repair dominates power savings — so a
// modification never trades a feasible link set for a cheaper overloaded
// one.
type swapEffect struct {
	excess float64
	power  float64
}

const gainEps = 1e-9

// improves reports whether the effect is a strict improvement.
func (e swapEffect) improves() bool {
	if e.excess < -gainEps {
		return true
	}
	return e.excess <= gainEps && e.power < -gainEps
}

// betterThan orders effects lexicographically (excess, then power).
func (e swapEffect) betterThan(o swapEffect) bool {
	if e.excess != o.excess {
		return e.excess < o.excess
	}
	return e.power < o.power
}

// swapEffectOf computes the effect of rerouting a flow of the given rate
// from path old to path new under the current loads, accumulating the
// per-link deltas in the scratch's dense link-indexed buffer. Deltas are
// summed in ascending link-id order: float addition is not associative,
// so an order depending on path direction (or, historically, map
// iteration) would make near-tie accept decisions nondeterministic and
// the "deterministic heuristics" guarantee would silently break. (A link
// appears at most once per Manhattan path, so within one id the sum has
// at most two terms and commutativity makes the tie order among equal ids
// irrelevant.)
func swapEffectOf(m *mesh.Mesh, ev *power.Evaluator, loads *route.LoadTracker,
	old, new route.Path, rate float64, sc *heurScratch) swapEffect {

	if len(sc.delta) != m.LinkIDSpace() {
		sc.delta = make([]float64, m.LinkIDSpace())
	}
	touched := sc.touched[:0]
	for _, l := range old {
		id := m.LinkIDFast(l)
		if sc.delta[id] == 0 {
			touched = append(touched, id)
		}
		sc.delta[id] -= rate
	}
	for _, l := range new {
		id := m.LinkIDFast(l)
		if sc.delta[id] == 0 {
			touched = append(touched, id)
		}
		sc.delta[id] += rate
	}
	sc.touched = touched
	sortIDs(touched)
	cached := loads.Observing()
	var e swapEffect
	for _, id := range touched {
		d := sc.delta[id]
		sc.delta[id] = 0
		if d == 0 {
			continue
		}
		before := loads.LoadID(id)
		after := before + d
		bp := 0.0
		if cached {
			bp = loads.PseudoID(id)
		} else {
			bp = ev.Pseudo(before)
		}
		e.power += ev.Pseudo(after) - bp
		e.excess += ev.Excess(after) - ev.Excess(before)
	}
	return e
}

// sortIDs is an insertion sort for the tiny touched-id lists of
// swapEffectOf (a handful of entries): ascending, cheaper than the
// general-purpose sort's pivot machinery at this size.
func sortIDs(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
