package heur

import (
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
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
// A link whose evaluation fails is retired rather than set aside, and it
// stays retired while none of its candidates improves. A candidate — one
// member flow moved off the link — is a pure function of the flow's path
// and the loads of the links its span swap reads (old and new span, net
// delta non-zero, the link itself among them). A move changes one flow's
// path, and loads only on that flow's old and new path. So after a move:
//
//   - the attacked link, whose evaluation succeeded, is back in play in
//     full;
//   - on every other retired link of either path, the moved flow's
//     candidate is replaced: the recorded one is dropped and, where the
//     flow still crosses the link, the new one is evaluated;
//   - every other recorded candidate is re-evaluated once if the move
//     changed the load of a link it read — a load on both paths may
//     round in (x − r) + r, so "changed" is a bit comparison, and a link
//     whose load came back bit-identical re-evaluates nothing;
//   - a retired link wakes in full (back into the heap) only when one of
//     these evaluations improves. Otherwise every candidate of its
//     current member set fails on the inputs it reads, the link would
//     fail again if popped, and it stays out of the heap.
//
// So "every link is back in play" holds in effect while the failed ones
// stay out of the heap (watchSet keeps the index). A candidate whose
// excess rises cannot improve, so its power is never probed. Routings are
// bit-for-bit those of the set-aside-and-reactivate formulation (pinned
// by refxyi_test.go and the golden figure tests).
type XYI struct{}

// Name returns "XYI".
func (XYI) Name() string { return "XYI" }

// Route implements solve.Solver.
func (x XYI) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, ws, err := prepare(x.Name(), in, o)
	if err != nil {
		return route.Routing{}, err
	}
	ps := ws.Paths()
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
	// evaluate moves flow pos off link l (id w) on the current state,
	// building the new span [lo,hi] in sc.cand, and records a failing
	// candidate with w; ok is false when the flow does not cross l or the
	// Manhattan constraint forbids the move. Links outside [lo,hi] are
	// identical in the old and new paths (their net delta is exactly
	// zero), so the effect of the full-path swap equals the effect of the
	// span swap. A candidate raising the excess by more than gainEps
	// cannot improve whatever its power, so its power sum is skipped.
	evaluate := func(w int, l mesh.Link, pos int) (e swapEffect, lo, hi int, ok bool) {
		c := in.Comms[pos]
		p := ps.Get(c.ID)
		span, lo, hi, ok := sc.moveOff(p, l)
		if !ok {
			return e, 0, 0, false
		}
		e = swapEffectOf(in.Mesh, ev, loads, p[lo:hi+1], span, c.Rate, sc, gainEps)
		if !e.improves() {
			watch.addCand(w, pos, c.Rate, sc.touched, sc.delta)
		}
		return e, lo, hi, true
	}
	fresh := func(w, pos int) (improves bool) {
		e, _, _, ok := evaluate(w, in.Mesh.LinkByID(w), pos)
		return ok && e.improves()
	}
	// recheck re-evaluates a recorded candidate from its deltas against
	// the current loads.
	recheck := func(touched []int, delta []float64) (improves bool) {
		return effectOf(ev, loads, touched, delta, gainEps).improves()
	}
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
		// the full per-communication scan with the misses skipped. The
		// failing candidates recorded on the way are l's retirement if
		// it fails; if it wins, the move drops them.
		for _, pos := range loads.MembersOn(lid) {
			e, lo, hi, ok := evaluate(lid, l, int(pos))
			if !ok {
				continue
			}
			if e.improves() && (bestPos < 0 || e.betterThan(best)) {
				bestPos, bestLo, bestHi, best = int(pos), lo, hi, e
				// Keep the winning span in sc.best; the next moveOff
				// builds into the other buffer.
				sc.cand, sc.best = sc.best, sc.cand
			}
		}
		if bestPos < 0 {
			watch.retire(lid)
			continue
		}
		c := in.Comms[bestPos]
		old := ps.Get(c.ID)
		full := append(sc.full[:0], old[:bestLo]...)
		full = append(full, sc.best...)
		full = append(full, old[bestHi+1:]...)
		sc.full = full
		// The moved links are the old path and the new span (the new
		// path's other links are the old path's); note their loads
		// before the move to tell which ones it changed.
		moved, pre := sc.moved[:0], sc.pre[:0]
		for _, path := range [...]route.Path{old, sc.best} {
			for _, pl := range path {
				id := in.Mesh.LinkIDFast(pl)
				moved, pre = append(moved, id), append(pre, loads.LoadID(id))
			}
		}
		// Only the span changes members. The links outside it still
		// take the rate off and back on, the two additions of excluding
		// the old path and including the new one, which may round.
		loads.ExcludePath(bestPos, old[bestLo:bestHi+1], c.Rate)
		loads.IncludePath(bestPos, sc.best, c.Rate)
		for i, id := range moved[:len(old)] {
			if i < bestLo || i > bestHi {
				loads.AddID(id, -c.Rate)
				loads.AddID(id, c.Rate)
			}
		}
		ps.SetCopy(c.ID, full)
		changed := sc.changed[:0]
		for i, id := range moved {
			if loads.LoadID(id) != pre[i] {
				changed = append(changed, id)
			}
		}
		sc.moved, sc.pre, sc.changed = moved, pre, changed
		watch.move(lid, bestPos, moved, changed, h, fresh, recheck)
	}
	return singlePathRouting(in, ws), nil
}

// watchSet is XYI's retirement index: the retired links and, for each,
// the candidates its evaluations recorded (a member flow moved off it),
// each with the links whose loads its span swap reads and the sign of
// its delta on each. The recorded reads and the flow's rate are the
// whole input of a candidate's re-evaluation besides the loads, until the
// flow itself moves. A retired link is out of the heap; move wakes it in
// full — drops its candidates and pushes it — when one of its candidates
// improves.
//
// The relation is stored in two free-listed arenas that live with the
// workspace: candidate nodes, chained per link, and read nodes, each on
// a doubly linked list per read link r (whom to re-evaluate) and on its
// candidate's chain (what to drop). Storage is bounded by the reads of
// the candidates recorded at one time — never by how often a link fails
// — and is reused across solves.
type watchSet struct {
	// head[r] is the first read node on link r's list, chain[w] the
	// first candidate of link w; -1 when empty. retired[w] holds while
	// w is out of the heap with every candidate failing.
	head, chain []int32
	retired     []bool
	// mark[w] == gen marks retired link w as due to wake at the end of
	// the move in progress; waking lists the marked links.
	mark   []uint32
	gen    uint32
	waking []int32
	cands  []watchCand
	reads  []watchRead
	// freeCand and freeRead head the arenas' free lists, threaded
	// through sib and next.
	freeCand, freeRead int32
	// touched/delta rebuild one candidate's deltas for a recheck.
	touched []int
	delta   []float64
}

// watchCand is one recorded candidate of link w: member flow pos, of the
// given rate, moved off w.
type watchCand struct {
	w, pos int32
	// seen is the move generation that last evaluated it.
	seen uint32
	// sib is w's next candidate (and threads the free list); reads is
	// the first node of the candidate's read chain, in ascending link id
	// order.
	sib, reads int32
	rate       float64
}

// watchRead records that candidate cand read link r, whose load its swap
// raises by the rate (up) or lowers by it.
type watchRead struct {
	cand, r int32
	// prev/next are the neighbours on r's list (next also threads the
	// free list); sib is the candidate's next read node.
	prev, next, sib int32
	up              bool
}

// reset empties the index for a mesh with n link ids, keeping its
// arenas.
func (s *watchSet) reset(n int) {
	if len(s.head) != n {
		s.head = make([]int32, n)
		s.chain = make([]int32, n)
		s.retired = make([]bool, n)
		s.mark = make([]uint32, n)
		s.gen = 0
	}
	for i := range s.head {
		s.head[i], s.chain[i] = -1, -1
	}
	clear(s.retired)
	s.cands, s.reads = s.cands[:0], s.reads[:0]
	s.freeCand, s.freeRead = -1, -1
}

// addCand records candidate pos of link w, a flow of the given rate that
// changes the load of link touched[i] by delta[i] (ids ascending and
// distinct, each delta ±rate) — swapEffectOf's sc.touched and sc.delta.
// It counts as evaluated in the move in progress.
func (s *watchSet) addCand(w, pos int, rate float64, touched []int, delta []float64) {
	k := s.freeCand
	if k >= 0 {
		s.freeCand = s.cands[k].sib
	} else {
		k = int32(len(s.cands))
		s.cands = append(s.cands, watchCand{})
	}
	cd := watchCand{w: int32(w), pos: int32(pos), seen: s.gen, sib: s.chain[w], reads: -1, rate: rate}
	last := int32(-1)
	for i, r := range touched {
		n := s.freeRead
		if n >= 0 {
			s.freeRead = s.reads[n].next
		} else {
			n = int32(len(s.reads))
			s.reads = append(s.reads, watchRead{})
		}
		s.reads[n] = watchRead{cand: k, r: int32(r), prev: -1, next: s.head[r], sib: -1, up: delta[i] > 0}
		if h := s.head[r]; h >= 0 {
			s.reads[h].prev = n
		}
		s.head[r] = n
		if last >= 0 {
			s.reads[last].sib = n
		} else {
			cd.reads = n
		}
		last = n
	}
	s.cands[k] = cd
	s.chain[w] = k
}

// retire marks link w, just popped, as failed: its recorded candidates
// are all of its legal candidates, and none improves.
func (s *watchSet) retire(w int) { s.retired[w] = true }

// move updates the index after link lid's evaluation moved flow pos.
// path lists the links of the flow's old and new paths (lid among them),
// changed those whose load the move changed.
//
//   - lid wakes in full.
//   - On every other retired link w of path, the flow's recorded
//     candidate is dropped and fresh(w, pos) evaluates the new one; fresh
//     records it with w when it fails (addCand) and reports whether it
//     improves. A path link not retired is pushed at its new load.
//   - Every other candidate that read a link of changed, on a retired
//     link not yet due to wake, is re-evaluated once by recheck, given
//     the deltas it was recorded with.
//
// The retired links with an improving candidate wake in full.
func (s *watchSet) move(lid, pos int, path, changed []int, h *route.LoadHeap,
	fresh func(w, pos int) bool, recheck func(touched []int, delta []float64) bool) {

	s.gen++
	if s.gen == 0 { // wrapped: old stamps could collide
		clear(s.mark)
		for i := range s.cands {
			s.cands[i].seen = 0
		}
		s.gen = 1
	}
	s.wake(lid, h)
	waking := s.waking[:0]
	for _, w := range path {
		if w == lid {
			continue
		}
		if !s.retired[w] {
			h.Push(w)
			continue
		}
		s.dropCand(w, pos)
		if fresh(w, pos) {
			s.mark[w] = s.gen
			waking = append(waking, int32(w))
		}
	}
	for _, r := range changed {
		for n := s.head[r]; n >= 0; n = s.reads[n].next {
			cd := &s.cands[s.reads[n].cand]
			if cd.seen == s.gen || s.mark[cd.w] == s.gen {
				continue
			}
			cd.seen = s.gen
			touched, delta := s.touched[:0], s.delta[:0]
			for n := cd.reads; n >= 0; n = s.reads[n].sib {
				d := -cd.rate
				if s.reads[n].up {
					d = cd.rate
				}
				touched, delta = append(touched, int(s.reads[n].r)), append(delta, d)
			}
			s.touched, s.delta = touched, delta
			if recheck(touched, delta) {
				s.mark[cd.w] = s.gen
				waking = append(waking, cd.w)
			}
		}
	}
	for _, w := range waking {
		s.wake(int(w), h)
	}
	s.waking = waking
}

// wake puts link w back in play: its candidates are dropped and it is
// pushed at its current load.
func (s *watchSet) wake(w int, h *route.LoadHeap) {
	for s.chain[w] >= 0 {
		s.unlink(w, s.chain[w], -1)
	}
	s.retired[w] = false
	h.Push(w)
}

// dropCand drops link w's candidate of flow pos, if recorded.
func (s *watchSet) dropCand(w, pos int) {
	for k, prev := s.chain[w], int32(-1); k >= 0; prev, k = k, s.cands[k].sib {
		if int(s.cands[k].pos) == pos {
			s.unlink(w, k, prev)
			return
		}
	}
}

// unlink removes candidate k, preceded by prev on link w's chain (-1 at
// its head), and frees it with its read nodes.
func (s *watchSet) unlink(w int, k, prev int32) {
	cd := &s.cands[k]
	for n := cd.reads; n >= 0; {
		nd := &s.reads[n]
		if nd.prev >= 0 {
			s.reads[nd.prev].next = nd.next
		} else {
			s.head[nd.r] = nd.next
		}
		if nd.next >= 0 {
			s.reads[nd.next].prev = nd.prev
		}
		next := nd.sib
		nd.next, s.freeRead = s.freeRead, n
		n = next
	}
	if prev >= 0 {
		s.cands[prev].sib = cd.sib
	} else {
		s.chain[w] = cd.sib
	}
	cd.sib, s.freeCand = s.freeCand, k
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
// from path old to path new under the current loads. It sorts each
// path's link ids and merges the two lists: an id on old only changes by
// −rate, on new only by +rate, and an id on both nets exactly zero and is
// skipped. sc.touched lists the ids with a non-zero delta, ascending, on
// return (sc.delta holds their deltas) — every link whose load the effect
// reads. Deltas are summed in ascending link-id order: float addition is
// not associative, so an order depending on path direction (or,
// historically, map iteration) would make near-tie accept decisions
// nondeterministic and the "deterministic heuristics" guarantee would
// silently break. (A link appears at most once per Manhattan path.)
//
// The excess is summed first; when it exceeds skipAbove the power sum is
// skipped (left zero), sparing the power probes of a candidate the
// caller will reject on excess alone. Pass +Inf to always get both.
func swapEffectOf(m *mesh.Mesh, ev *power.Evaluator, loads *route.LoadTracker,
	old, new route.Path, rate float64, sc *heurScratch, skipAbove float64) swapEffect {

	a := appendSortedIDs(sc.oldIDs[:0], m, old)
	b := appendSortedIDs(sc.newIDs[:0], m, new)
	sc.oldIDs, sc.newIDs = a, b
	touched, delta := sc.touched[:0], sc.delta[:0]
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			touched, delta = append(touched, a[0]), append(delta, -rate)
			a = a[1:]
		case len(a) == 0 || b[0] < a[0]:
			touched, delta = append(touched, b[0]), append(delta, rate)
			b = b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	sc.touched, sc.delta = touched, delta
	return effectOf(ev, loads, touched, delta, skipAbove)
}

// effectOf sums the effect of changing the load of link touched[i] by
// delta[i], in the given (ascending id) order; see swapEffectOf.
func effectOf(ev *power.Evaluator, loads *route.LoadTracker, touched []int, delta []float64, skipAbove float64) swapEffect {
	var e swapEffect
	for i, id := range touched {
		before := loads.LoadID(id)
		e.excess += ev.Excess(before+delta[i]) - ev.Excess(before)
	}
	if e.excess > skipAbove {
		return e
	}
	cached := loads.Observing()
	for i, id := range touched {
		before := loads.LoadID(id)
		bp := 0.0
		if cached {
			bp = loads.PseudoID(id)
		} else {
			bp = ev.Pseudo(before)
		}
		e.power += ev.Pseudo(before+delta[i]) - bp
	}
	return e
}

// appendSortedIDs appends the link ids of p to dst in ascending order.
// The lists are a handful of entries, where an insertion sort is cheaper
// than the general-purpose sort's pivot machinery.
func appendSortedIDs(dst []int, m *mesh.Mesh, p route.Path) []int {
	n := len(dst)
	for _, l := range p {
		id := m.LinkIDFast(l)
		j := len(dst)
		dst = append(dst, id)
		for ; j > n && dst[j-1] > id; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = id
	}
	return dst
}
