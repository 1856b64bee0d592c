package heur

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/route"
	"repro/internal/solve"
)

// PR is the Path-Remover heuristic of Section 5.5. Every communication
// starts virtually pre-routed over all of its Manhattan paths (the ideal
// sharing of Figure 3: at each diagonal step the rate is spread equally
// over the admissible links). Links are then removed iteratively: take the
// most-loaded link and, among the communications still allowed to use it,
// the heaviest one whose path structure survives the removal; delete the
// link from that communication's allowed set, prune links that no longer
// lie on any remaining source-to-sink path (the paper's path-cleaning),
// and redistribute the communication's virtual shares over the surviving
// links. The process ends when every communication has exactly one path.
//
// Path cleaning cascades live degrees. Each communication keeps, per
// core of its bounding box, a bit for each of its out-links and in-links
// still live. Deleting a link clears it at both endpoints. A core left
// with no live out-link (other than the sink) then loses its in-links,
// and a core left with no live in-link (other than the source) its
// out-links, recursively. What survives is the maximal clean sub-DAG,
// exactly the links both reachable from the source and reaching the
// sink, at a cost proportional to the links killed.
//
// A removal then shifts the communication's shares in one pass over its
// pre-removal DAG: each link loses its old share and, if it survived,
// gains its step's new share, in that order — the two additions of
// subtracting every share and adding the new ones back, so a step whose
// width did not change still rounds (x − s) + s exactly as that does
// (refpr_test.go pins it). Only the links whose load moved, plus the
// attacked link, go back into the hot-link heap.
type PR struct {
	// StaticShares disables the share redistribution: a removed link's
	// virtual share simply disappears instead of concentrating on the
	// surviving links, so the tail of the removal process sees
	// increasingly optimistic loads. Exists only for the accounting
	// ablation (BenchmarkAblationPRShares); the paper's behaviour — and
	// the default — is redistribution.
	StaticShares bool
}

// Name returns "PR".
func (PR) Name() string { return "PR" }

// prState holds the shrinking path DAG of one communication.
type prState struct {
	c comm.Comm
	// steps[t] lists the link IDs still allowed at diagonal step t, in
	// AppendFrontierIDs order; every listed link lies on at least one
	// remaining src→dst path. The inner lists come from the scratch's
	// list pool and only ever shrink after construction.
	steps [][]int
	// initSizes[t] is the original frontier width of step t, used as the
	// share denominator under the StaticShares ablation.
	initSizes []int
	// box addresses the bounding box's cores; live[box.Cell(a, b)] holds
	// the live-link bits of core (a, b), a view into the scratch arena.
	box    mesh.BoxFrame
	live   []uint8
	static bool
	multi  bool // true while more than one path remains
}

// The live-link bits of a box core: its out-links along u and v, and its
// in-links from (a−1, b) along u and from (a, b−1) along v.
const (
	outU uint8 = 1 << iota
	outV
	inU
	inV
)

// prScratch is the pooled dense state of the PR heuristic: per-comm DAG
// states and their live-bit arena, a link-id-indexed comm index
// replacing the map[int][]int, and the ordering and moved-link buffers.
// One instance lives in each workspace under the "heur.pr" slot.
type prScratch struct {
	states []prState
	// multiLeft counts the states still holding more than one path.
	multiLeft int
	// lists pools the steps' link-id lists; nextList is the bump pointer.
	lists    [][]int
	nextList int
	// live is the arena the states' live bits view into, sized to the
	// largest instance seen.
	live []uint8
	// commsByLink[id] lists, as indices into states, the communications
	// that may still remove link id (dense over LinkIDSpace), in reverse
	// removal-preference order: the last entry is the next to try (rate
	// descending, then ID ascending, from the end). removeFromHeaviest
	// pops every entry it passes over: a user that cannot remove the link
	// never can again — the link left its DAG, it is single-path, or the
	// link is alone in its step, and all three only ever persist. So a
	// link with an empty list is retired for good and never re-enters
	// the hot-link heap.
	commsByLink [][]int
	// killed stamps, with one generation per removal, the links a
	// removal's cleaning cascade killed; killedAt[t] counts them per
	// diagonal step t.
	killed   []int
	killGen  int
	killedAt []int
	// order holds the state indices in removal-preference order while
	// commsByLink is built.
	order []int
	// moved lists the links whose load the last removal changed, for
	// the caller's heap re-push.
	moved []int
}

func prScratchOf(ws *route.Workspace) *prScratch {
	return ws.Scratch("heur.pr", func() any { return new(prScratch) }).(*prScratch)
}

// newList returns an empty pooled []int with the given capacity.
func (sc *prScratch) newList(capHint int) []int {
	if sc.nextList == len(sc.lists) {
		sc.lists = append(sc.lists, make([]int, 0, capHint))
	}
	l := sc.lists[sc.nextList]
	if cap(l) < capHint {
		l = make([]int, 0, capHint)
		sc.lists[sc.nextList] = l
	}
	sc.nextList++
	return l[:0]
}

// Route implements solve.Solver.
func (h PR) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, ws, err := prepare(h.Name(), in, o)
	if err != nil {
		return route.Routing{}, err
	}
	m := in.Mesh
	ps := ws.Paths()
	loads := ws.Tracker()
	hsc := scratchOf(ws)
	sc := prScratchOf(ws)
	sc.nextList = 0
	if n := len(in.Comms); cap(sc.states) < n {
		// Grow keeping the old states: their step buffers stay pooled.
		sc.states = slices.Grow(sc.states[:cap(sc.states)], n-cap(sc.states))
	}
	sc.states = sc.states[:len(in.Comms)]
	if len(sc.commsByLink) != m.LinkIDSpace() {
		sc.commsByLink = make([][]int, m.LinkIDSpace())
		sc.killed = make([]int, m.LinkIDSpace())
		sc.killGen = 0
	}
	for id := range sc.commsByLink {
		sc.commsByLink[id] = sc.commsByLink[id][:0]
	}
	sc.multiLeft = 0
	cells := 0
	for i, c := range in.Comms {
		sc.states[i].box = m.BoxFrameOf(c.Src, c.Dst)
		cells += sc.states[i].box.Cells()
	}
	if cap(sc.live) < cells {
		sc.live = make([]uint8, cells)
	}
	live := sc.live[:cells]

	for i, c := range in.Comms {
		st := &sc.states[i]
		st.c, st.static = c, h.StaticShares
		st.live, live = live[:st.box.Cells()], live[st.box.Cells():]
		st.initLive()
		if cap(st.steps) < c.Length() {
			st.steps = make([][]int, c.Length())
		}
		st.steps = st.steps[:c.Length()]
		st.initSizes = st.initSizes[:0]
		for t := 0; t < c.Length(); t++ {
			hsc.ids = m.AppendFrontierIDs(hsc.ids[:0], c.Src, c.Dst, t)
			st.steps[t] = append(sc.newList(len(hsc.ids)), hsc.ids...)
			st.initSizes = append(st.initSizes, len(hsc.ids))
		}
		if st.refreshMulti() {
			sc.multiLeft++
		}
		st.addShares(loads)
	}
	// The link→comm index lists each link's users in reverse of the
	// order removeFromHeaviest tries them.
	sc.order = sc.order[:0]
	for i := range sc.states {
		sc.order = append(sc.order, i)
	}
	states := sc.states
	slices.SortFunc(sc.order, func(a, b int) int {
		if c := cmp.Compare(states[b].c.Rate, states[a].c.Rate); c != 0 {
			return c
		}
		return states[a].c.ID - states[b].c.ID
	})
	for _, i := range slices.Backward(sc.order) {
		for _, step := range states[i].steps {
			for _, id := range step {
				sc.commsByLink[id] = append(sc.commsByLink[id], i)
			}
		}
	}

	// Link removal order: always attack the most-loaded live link first.
	// The heap pops in exactly the LinksByLoadDesc order, with the links
	// whose shares moved re-pushed after each removal. A link on which no
	// removal applies is retired for good (see prScratch.commsByLink): a
	// rescan from the top after the next removal would only fail on it
	// again.
	hp := &hsc.heap
	hp.Init(loads)
	for sc.multiLeft > 0 {
		id, ok := hp.Pop()
		if !ok {
			// A multi-path communication keeps a removable link, but its
			// shares can round to zero load and never reach the heap:
			// name it rather than emit a path nothing checked.
			st := sc.states[slices.IndexFunc(sc.states, func(st prState) bool { return st.multi })]
			return route.Routing{}, fmt.Errorf("heur: PR left communication %d (%v→%v) with several paths and no removable loaded link",
				st.c.ID, st.c.Src, st.c.Dst)
		}
		if !removeFromHeaviest(m, loads, sc, id) {
			continue
		}
		// Every link outside the heap is retired, at zero load, or the
		// popped one, so the links whose load moved and the popped link
		// are all that must be pushed.
		for _, lid := range sc.moved {
			if len(sc.commsByLink[lid]) > 0 {
				hp.Push(lid)
			}
		}
		if len(sc.commsByLink[id]) > 0 {
			hp.Push(id)
		}
	}

	for i := range sc.states {
		st := &sc.states[i]
		p := ps.Acquire(st.c.ID, len(st.steps))
		for _, step := range st.steps {
			p = append(p, m.LinkByID(step[0]))
		}
		ps.Set(st.c.ID, p)
	}
	return singlePathRouting(in, ws), nil
}

// removeFromHeaviest tries to delete link id from the heaviest multi-path
// communication using it, per the Section 5.5 tie-walk ("unless this
// removal would break its last remaining path […] we consider removing the
// second communication, and so on"). commsByLink[id] lists the link's
// users heaviest last; every user tried leaves the list, the one that
// removes the link included. It reports whether a removal was applied.
func removeFromHeaviest(m *mesh.Mesh, loads *route.LoadTracker, sc *prScratch, id int) bool {
	l := m.LinkByID(id)
	users := sc.commsByLink[id]
	for len(users) > 0 {
		st := &sc.states[users[len(users)-1]]
		users = users[:len(users)-1]
		if !st.multi || !st.uses(l) || !st.canRemove(l.From) {
			continue
		}
		sc.commsByLink[id] = users
		if !st.remove(sc, loads, l) {
			sc.multiLeft--
		}
		return true
	}
	sc.commsByLink[id] = users
	return false
}

// share returns the communication's virtual load on each link of step
// t when the step is width links wide: rate/width, or rate/initSizes[t]
// under the StaticShares ablation.
func (st *prState) share(t, width int) float64 {
	if st.static {
		width = st.initSizes[t]
	}
	return st.c.Rate / float64(width)
}

// addShares adds the communication's virtual loads to the tracker.
func (st *prState) addShares(loads *route.LoadTracker) {
	for t, step := range st.steps {
		share := st.share(t, len(step))
		for _, id := range step {
			loads.AddID(id, share)
		}
	}
}

// refreshMulti recomputes and returns whether more than one path remains.
func (st *prState) refreshMulti() bool {
	st.multi = slices.ContainsFunc(st.steps, func(step []int) bool { return len(step) > 1 })
	return st.multi
}

// uses reports whether link l, which lies in the communication's
// bounding box along a Manhattan move, is still in its DAG: whether its
// tail core's out-bit for the move is live.
func (st *prState) uses(l mesh.Link) bool {
	bit := outV
	if l.From.U != l.To.U {
		bit = outU
	}
	return st.live[st.box.Cell(abs(l.From.U-st.c.Src.U), abs(l.From.V-st.c.Src.V))]&bit != 0
}

// canRemove reports whether deleting a link leaving core from keeps at
// least one src→dst path in the communication's DAG: whether the link's
// step holds another link. That is exact because the DAG is leveled
// (every path crosses each step exactly once) and clean (every listed
// link lies on a remaining path), so any other link of the step carries a
// path avoiding the deleted one. Callers reach it through the link→comm
// incidence index, which lists exactly the communications whose DAG
// contains the link, so presence needs no re-scan.
func (st *prState) canRemove(from mesh.Coord) bool {
	return len(st.steps[mesh.Manhattan(st.c.Src, from)]) > 1
}

// initLive marks every admissible link of the box live: the full
// Manhattan DAG, in which every core lies on a src→dst path.
func (st *prState) initLive() {
	f := &st.box
	for a := 0; a <= f.DU; a++ {
		for b := 0; b <= f.DV; b++ {
			var bits uint8
			if a < f.DU {
				bits |= outU
			}
			if b < f.DV {
				bits |= outV
			}
			if a > 0 {
				bits |= inU
			}
			if b > 0 {
				bits |= inV
			}
			st.live[f.Cell(a, b)] = bits
		}
	}
}

// remove deletes link l and prunes every link no longer on a src→dst
// path, the paper's cleaning step, then shifts the shares in one pass:
// every pre-removal link loses its old share, a surviving one then gains
// its step's new share, and the killed links leave their steps. It
// records the links whose load moved in sc.moved and reports whether
// more than one path remains. The killed links' index entries are left
// for removeFromHeaviest to drop (see uses).
func (st *prState) remove(sc *prScratch, loads *route.LoadTracker, l mesh.Link) bool {
	sc.killGen++
	sc.killedAt = append(sc.killedAt[:0], make([]int, len(st.steps))...)
	st.kill(sc, abs(l.From.U-st.c.Src.U), abs(l.From.V-st.c.Src.V), l.From.U != l.To.U)
	moved := sc.moved[:0]
	for t, step := range st.steps {
		width := len(step) - sc.killedAt[t]
		if width == 0 {
			panic("heur: PR pruned a communication to zero paths")
		}
		oldShare, newShare := st.share(t, len(step)), st.share(t, width)
		kept := step[:0]
		for _, lid := range step {
			before := loads.LoadID(lid)
			loads.AddID(lid, -oldShare)
			if sc.killed[lid] != sc.killGen {
				loads.AddID(lid, newShare)
				kept = append(kept, lid)
			}
			if loads.LoadID(lid) != before {
				moved = append(moved, lid)
			}
		}
		st.steps[t] = kept
	}
	sc.moved = moved
	return st.refreshMulti()
}

// kill clears the live link leaving core (a, b) along u (alongU) or v
// and stamps it killed, then cascades: its tail left without live
// out-links loses its in-links, its head left without live in-links
// loses its out-links. The tail is never the sink and the head never the
// source, and canRemove guarantees the source keeps an out-link and the
// sink an in-link, so the cascade stops at both ends.
func (st *prState) kill(sc *prScratch, a, b int, alongU bool) {
	f := &st.box
	x := f.Cell(a, b)
	ha, hb, id := a, b+1, f.VID(a, b)
	out, in := outV, inV
	if alongU {
		ha, hb, id = a+1, b, f.UID(a, b)
		out, in = outU, inU
	}
	y := f.Cell(ha, hb)
	st.live[x] &^= out
	st.live[y] &^= in
	sc.killed[id] = sc.killGen
	sc.killedAt[a+b]++

	if st.live[x]&(outU|outV) == 0 {
		if st.live[x]&inU != 0 {
			st.kill(sc, a-1, b, true)
		}
		if st.live[x]&inV != 0 {
			st.kill(sc, a, b-1, false)
		}
	}
	if st.live[y]&(inU|inV) == 0 {
		if st.live[y]&outU != 0 {
			st.kill(sc, ha, hb, true)
		}
		if st.live[y]&outV != 0 {
			st.kill(sc, ha, hb, false)
		}
	}
}
