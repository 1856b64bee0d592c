package heur

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/route"
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
	// steps[t] lists the link IDs still allowed at diagonal step t;
	// every listed link lies on at least one remaining src→dst path.
	// The inner lists come from the scratch's list pool and only ever
	// shrink after construction.
	steps [][]int
	// initSizes[t] is the original frontier width of step t, used as the
	// share denominator under the StaticShares ablation.
	initSizes []int
	static    bool
	multi     bool // true while more than one path remains
}

// prScratch is the pooled dense state of the PR heuristic: per-comm DAG
// states, a link-id-indexed comm index replacing the map[int][]int, the
// retired-link set, the leveled coord bitsets of the cleaning sweeps, and
// the removal-order and frontier buffers. One instance lives in each
// workspace under the "heur.pr" slot.
type prScratch struct {
	states []prState
	// multiLeft counts the states still holding more than one path.
	multiLeft int
	// lists pools the steps' link-id lists; nextList is the bump pointer.
	lists    [][]int
	nextList int
	// commsByLink[id] lists indices into states of communications whose
	// remaining DAG includes link id (dense over LinkIDSpace).
	commsByLink [][]int
	// dead is a generation-stamped link-id set (one generation per solve)
	// of links on which a removal failed. A failure is final: the
	// communications on a link only ever leave it, multi-path ones only
	// ever become single-path, and a step's width only ever shrinks, so
	// a retired link never re-enters the hot-link heap.
	dead    []int
	deadGen int
	order   []int
	// touched records the pre-removal DAG of the removing communication —
	// every link whose load the removal can change — for the caller's
	// heap re-push.
	touched []int
	// linkFrom/linkTo are the dense coordinate indices of each link id's
	// endpoints (mesh.CoordIndex), precomputed so the cleaning sweeps
	// skip the LinkByID reconstruction per probe.
	linkFrom, linkTo []int32
	// fwd and bwd are the per-level reachability bitsets of remove.
	fwd, bwd []route.CoordSet
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

// levels grows dst to n bitsets sized for m, each cleared, and returns it.
func levels(dst []route.CoordSet, n int, m *mesh.Mesh) []route.CoordSet {
	if cap(dst) < n {
		next := make([]route.CoordSet, n)
		copy(next, dst[:cap(dst)])
		dst = next
	}
	dst = dst[:n]
	for i := range dst {
		dst[i].Reset(m)
	}
	return dst
}

// Route implements Heuristic.
func (h PR) Route(in Instance) (route.Routing, error) {
	return h.RouteInto(in, route.NewWorkspace())
}

// RouteInto implements WorkspaceRouter.
func (h PR) RouteInto(in Instance, ws *route.Workspace) (route.Routing, error) {
	m := in.Mesh
	ps := prepare(in, ws)
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
		sc.dead = make([]int, m.LinkIDSpace())
		sc.deadGen = 0
		sc.linkFrom = make([]int32, m.LinkIDSpace())
		sc.linkTo = make([]int32, m.LinkIDSpace())
		for _, l := range m.Links() {
			id := m.LinkID(l)
			sc.linkFrom[id] = int32(m.CoordIndex(l.From))
			sc.linkTo[id] = int32(m.CoordIndex(l.To))
		}
	}
	for id := range sc.commsByLink {
		sc.commsByLink[id] = sc.commsByLink[id][:0]
	}
	sc.deadGen++
	sc.multiLeft = 0

	for i, c := range in.Comms {
		st := &sc.states[i]
		st.c, st.static = c, h.StaticShares
		if cap(st.steps) < c.Length() {
			st.steps = make([][]int, c.Length())
		}
		st.steps = st.steps[:c.Length()]
		st.initSizes = st.initSizes[:0]
		for t := 0; t < c.Length(); t++ {
			hsc.frontier = m.AppendFrontierLinks(hsc.frontier[:0], c.Src, c.Dst, t)
			step := sc.newList(len(hsc.frontier))
			for _, l := range hsc.frontier {
				id := m.LinkID(l)
				step = append(step, id)
				sc.commsByLink[id] = append(sc.commsByLink[id], i)
			}
			st.steps[t] = step
			st.initSizes = append(st.initSizes, len(step))
		}
		if st.refreshMulti() {
			sc.multiLeft++
		}
		st.addShares(loads, +1)
	}

	// Link removal order: always attack the most-loaded live link first.
	// The heap pops in exactly the LinksByLoadDesc order, with the links
	// whose shares moved re-pushed after each removal. A link on which no
	// removal applies is retired for good (see prScratch.dead): a rescan
	// from the top after the next removal would only fail on it again.
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
			sc.dead[id] = sc.deadGen
			continue
		}
		// Re-pushing a link whose load did not move is a no-op, and the
		// popped link is among the touched ones, so it re-enters too.
		for _, lid := range sc.touched {
			if sc.dead[lid] != sc.deadGen {
				hp.Push(lid)
			}
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
// second communication, and so on"). It reports whether a removal was
// applied.
func removeFromHeaviest(m *mesh.Mesh, loads *route.LoadTracker, sc *prScratch, id int) bool {
	states := sc.states
	order := sc.order[:0]
	for _, i := range sc.commsByLink[id] {
		if states[i].multi {
			order = append(order, i)
		}
	}
	sc.order = order
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(states[b].c.Rate, states[a].c.Rate); c != 0 {
			return c
		}
		return states[a].c.ID - states[b].c.ID
	})
	from := m.CoordAt(int(sc.linkFrom[id]))
	for _, i := range order {
		st := &states[i]
		if !st.canRemove(from) {
			continue
		}
		st.addShares(loads, -1)
		if !st.remove(m, sc, i, id) {
			sc.multiLeft--
		}
		st.addShares(loads, +1)
		return true
	}
	return false
}

// addShares adds (sign=+1) or removes (sign=-1) the communication's
// virtual loads: rate/|steps[t]| on each allowed link of step t, or
// rate/initSizes[t] under the StaticShares ablation.
func (st *prState) addShares(loads *route.LoadTracker, sign float64) {
	for t, step := range st.steps {
		denom := float64(len(step))
		if st.static {
			denom = float64(st.initSizes[t])
		}
		share := sign * st.c.Rate / denom
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

// remove deletes link id and prunes every link no longer on a src→dst
// path (forward ∩ backward reachability), the paper's cleaning step. It
// records the pre-removal links in sc.touched, drops the communication
// (states index self) from the index entries of the links it loses, and
// reports whether more than one path remains.
func (st *prState) remove(m *mesh.Mesh, sc *prScratch, self, id int) bool {
	// Forward-reachable cores per diagonal level.
	sc.fwd = levels(sc.fwd, len(st.steps)+1, m)
	sc.fwd[0].Add(st.c.Src)
	for t, step := range st.steps {
		for _, lid := range step {
			if lid == id {
				continue
			}
			if sc.fwd[t].HasIdx(int(sc.linkFrom[lid])) {
				sc.fwd[t+1].AddIdx(int(sc.linkTo[lid]))
			}
		}
	}
	// Backward-reachable cores per level.
	sc.bwd = levels(sc.bwd, len(st.steps)+1, m)
	sc.bwd[len(st.steps)].Add(st.c.Dst)
	for t := len(st.steps) - 1; t >= 0; t-- {
		for _, lid := range st.steps[t] {
			if lid == id {
				continue
			}
			if sc.bwd[t+1].HasIdx(int(sc.linkTo[lid])) {
				sc.bwd[t].AddIdx(int(sc.linkFrom[lid]))
			}
		}
	}
	sc.touched = sc.touched[:0]
	for t, step := range st.steps {
		kept := step[:0]
		for _, lid := range step {
			sc.touched = append(sc.touched, lid)
			if lid != id && sc.fwd[t].HasIdx(int(sc.linkFrom[lid])) && sc.bwd[t+1].HasIdx(int(sc.linkTo[lid])) {
				kept = append(kept, lid)
				continue
			}
			users := sc.commsByLink[lid]
			j := slices.Index(users, self)
			sc.commsByLink[lid] = slices.Delete(users, j, j+1)
		}
		if len(kept) == 0 {
			panic("heur: PR pruned a communication to zero paths")
		}
		st.steps[t] = kept
	}
	return st.refreshMulti()
}
