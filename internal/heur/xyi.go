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
// instead of a full re-sort after every applied move.
//
// Two shortcuts skip evaluations whose outcome is already known. A link
// that fails is retired rather than set aside: it records the links its
// evaluation read (watchSet), and an applied move wakes only the retired
// links that read a link of the moved path — any other would fail again
// on identical inputs, so "every link is back in play" holds in effect
// while the failed ones stay out of the heap. And a candidate whose
// excess rises cannot improve, so its power is never probed. Routings
// are bit-for-bit those of the set-aside-and-reactivate formulation
// (pinned by refxyi_test.go and the golden figure tests).
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
	watch := &sc.watch
	watch.reset(in.Mesh.LinkIDSpace())
	for {
		lid, ok := h.Pop()
		if !ok {
			break
		}
		l := in.Mesh.LinkByID(lid)
		bestPos, bestLo, bestHi := -1, 0, 0
		var best swapEffect
		// read collects every link whose state this evaluation reads: l
		// itself (its members and load) and the links of every span swap
		// examined (their loads).
		read := append(sc.read[:0], lid)
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
			// the full-path swap equals the effect of the span swap. A
			// candidate raising the excess by more than gainEps cannot
			// improve whatever its power, so its power sum is skipped.
			e := swapEffectOf(in.Mesh, ev, loads, p[lo:hi+1], span, c.Rate, sc, gainEps)
			read = append(read, sc.touched...)
			if e.improves() && (bestPos < 0 || e.betterThan(best)) {
				bestPos, bestLo, bestHi, best = int(pos), lo, hi, e
				// Keep the winning span in sc.best; the next moveOff
				// builds into the other buffer.
				sc.cand, sc.best = sc.best, sc.cand
			}
		}
		sc.read = read
		if bestPos < 0 {
			watch.retire(lid, read)
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
		// Every load, incidence list and path the move changed lies on
		// the old or the new path — a link on both may still have changed
		// load, since excluding and re-including a rate can round. So the
		// retired links that read any of these wake up, and these links
		// themselves are re-pushed (a no-op when unchanged; the attacked
		// link, popped and out of the heap, is on the old path and
		// re-enters).
		for _, path := range [...]route.Path{old, full} {
			for _, pl := range path {
				id := in.Mesh.LinkIDFast(pl)
				watch.wake(id, h)
				h.Push(id)
			}
		}
		ps.SetCopy(c.ID, full)
	}
	return singlePathRouting(in, ws), nil
}

// watchSet is XYI's retirement index: the relation "retired link w's
// last failed evaluation read link r". A retired link stays out of the
// heap: its evaluation reads nothing but the state of the links it
// watches, so until a move touches one of them it would fail again on
// identical inputs. wake ends the retirement of every watcher of a
// touched link.
//
// The relation is stored as nodes on two linked lists each: a doubly
// linked list per read link r (whom to wake) and a chain per watcher w
// (every node to drop once w wakes, whichever link woke it). Nodes come
// from a free-listed arena that lives with the workspace, so storage is
// bounded by the reads of the links retired at one time — never by how
// often a link fails — and is reused across solves.
type watchSet struct {
	// head[r] is the first node on read link r's list, chain[w] the
	// first node of retired link w; -1 when empty.
	head, chain []int32
	// stamp[r] == gen marks link r as already recorded for the
	// retirement in progress (a span link is read by many candidates).
	stamp []uint32
	gen   uint32
	nodes []watchNode
	free  int32
}

// watchNode records that watcher w read link r.
type watchNode struct {
	w, r int32
	// prev/next are the neighbours on r's list (next also threads the
	// free list); sib is w's next node.
	prev, next, sib int32
}

// reset empties the index for a mesh with n link ids, keeping its
// arena.
func (s *watchSet) reset(n int) {
	if len(s.stamp) != n {
		s.head = make([]int32, n)
		s.chain = make([]int32, n)
		s.stamp = make([]uint32, n)
		s.gen = 0
	}
	for i := range s.head {
		s.head[i], s.chain[i] = -1, -1
	}
	s.nodes = s.nodes[:0]
	s.free = -1
}

// retire records link w, just popped and failed, as a watcher of every
// link in read.
func (s *watchSet) retire(w int, read []int) {
	s.gen++
	if s.gen == 0 { // wrapped: old stamps could collide
		clear(s.stamp)
		s.gen = 1
	}
	for _, r := range read {
		if s.stamp[r] == s.gen {
			continue
		}
		s.stamp[r] = s.gen
		n := s.free
		if n >= 0 {
			s.free = s.nodes[n].next
		} else {
			n = int32(len(s.nodes))
			s.nodes = append(s.nodes, watchNode{})
		}
		s.nodes[n] = watchNode{w: int32(w), r: int32(r), prev: -1, next: s.head[r], sib: s.chain[w]}
		if h := s.head[r]; h >= 0 {
			s.nodes[h].prev = n
		}
		s.head[r], s.chain[w] = n, n
	}
}

// wake ends the retirement of every watcher of link r: each one's nodes
// are unlinked and freed, and the link is pushed back at its current
// load.
func (s *watchSet) wake(r int, h *route.LoadHeap) {
	for s.head[r] >= 0 {
		w := s.nodes[s.head[r]].w
		for n := s.chain[w]; n >= 0; {
			nd := &s.nodes[n]
			if nd.prev >= 0 {
				s.nodes[nd.prev].next = nd.next
			} else {
				s.head[nd.r] = nd.next
			}
			if nd.next >= 0 {
				s.nodes[nd.next].prev = nd.prev
			}
			next := nd.sib
			nd.next, s.free = s.free, n
			n = next
		}
		s.chain[w] = -1
		h.Push(int(w))
	}
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
// per-link deltas in the scratch's dense link-indexed buffer; sc.touched
// lists the link ids of both paths on return. Deltas are summed in
// ascending link-id order: float addition is not associative, so an
// order depending on path direction (or, historically, map iteration)
// would make near-tie accept decisions nondeterministic and the
// "deterministic heuristics" guarantee would silently break. (A link
// appears at most once per Manhattan path, so within one id the sum has
// at most two terms and commutativity makes the tie order among equal ids
// irrelevant.)
//
// The excess is summed first; when it exceeds skipAbove the power sum is
// skipped (left zero), sparing the power probes of a candidate the
// caller will reject on excess alone. Pass +Inf to always get both.
func swapEffectOf(m *mesh.Mesh, ev *power.Evaluator, loads *route.LoadTracker,
	old, new route.Path, rate float64, sc *heurScratch, skipAbove float64) swapEffect {

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
	var e swapEffect
	for _, id := range touched {
		if d := sc.delta[id]; d != 0 {
			before := loads.LoadID(id)
			e.excess += ev.Excess(before+d) - ev.Excess(before)
		}
	}
	if e.excess > skipAbove {
		for _, id := range touched {
			sc.delta[id] = 0
		}
		return e
	}
	cached := loads.Observing()
	for _, id := range touched {
		d := sc.delta[id]
		sc.delta[id] = 0
		if d == 0 {
			continue
		}
		before := loads.LoadID(id)
		bp := 0.0
		if cached {
			bp = loads.PseudoID(id)
		} else {
			bp = ev.Pseudo(before)
		}
		e.power += ev.Pseudo(before+d) - bp
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
