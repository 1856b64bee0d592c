package exact

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// Workspace owns every buffer a Solve call needs — the sorted comm order,
// the flat candidate-path arena, the link→comm incidence index, the
// per-worker search states, the subtree task prefixes, and the result
// flows — so a reused workspace solves without allocating once warmed
// (the Reset-or-New discipline of route.Workspace and noc.Workspace). The
// zero value is not usable; construct with NewWorkspace.
type Workspace struct {
	mesh  *mesh.Mesh
	model power.Model
	ev    *power.Evaluator

	// Continuous-relaxation scalars of the bound (model with Freqs
	// dropped), precomputed so the hot loops never touch the Model.
	pleak   float64
	p0      float64
	alpha   float64
	invUnit float64
	cube    bool    // alpha == 3: cube beats math.Pow on the bound path
	maxOK   float64 // MaxBW + 1e-9, the overload threshold

	// Lower convex envelope of the quantized dynamic power: piecewise
	// linear through (0, 0) and every (level, P0·(level/unit)^α). The
	// envelope is convex (PL interpolation of a convex function), never
	// exceeds the quantized power (which holds each level's value across
	// the whole interval below it), and lies on or above the continuous
	// curve — so it is the tightest separable convex bound available, and
	// evaluating a PL segment is cheaper than math.Pow. Empty for
	// continuous models (no levels), where contDyn is the envelope.
	envX []float64 // segment starts: 0, level_1, ..., level_{K-1}
	envY []float64 // envelope value at each segment start
	envS []float64 // segment slopes, nondecreasing

	// Instance tables, indexed by position in the weight-descending order.
	order    comm.Set
	rate     []float64
	lens     []int32 // Manhattan length of every candidate path of the comm
	npaths   []int32
	arenaOff []int32 // offset of the comm's first path in arena
	arena    []int32 // flat link ids; path j of comm ci is arena[off+j·L : off+(j+1)·L]

	// candOff/candBuf hold the per-comm candidate visit order: a
	// permutation of [0, npaths) sorted by seed-load increment.
	candOff []int32
	candBuf []int32

	// Incidence CSR: incBuf[incOff[l]:incOff[l+1]] lists the comms whose
	// candidate set touches link l — the bound-cache invalidation index.
	incOff []int32
	incBuf []int32

	// usedLinks lists, in ascending id order, every link any candidate
	// path can touch: the only links a leaf scan needs, in a fixed
	// summation order shared by all workers.
	usedLinks []int32

	// Shared search coordination.
	maxStates int64
	nodeCount atomic.Int64
	truncated atomic.Bool
	stop      func() bool // Options.Stop, polled by charge
	stopped   atomic.Bool // latched once stop reports true
	best      incumbent

	// Parallel split: taskBuf holds choice-vector prefixes of length
	// taskD, one subtree task each, taken in order by the worker pool.
	taskD   int
	taskBuf []int32

	pool []*searchState

	// Result assembly and seeding scratch.
	flows   []route.Flow
	paths   route.PathSet
	seedVec []int32
	rws     *route.Workspace // lazily built when the caller provides none

	stamp   []int32
	cnt     []int32
	keys    []float64
	mvs     []uint8
	linkBuf []int32
}

// NewWorkspace returns an empty workspace ready for its first Solve.
func NewWorkspace() *Workspace { return &Workspace{} }

// contDyn is the continuous-relaxation dynamic power P0·(load/unit)^α.
func (w *Workspace) contDyn(load float64) float64 {
	x := load * w.invUnit
	if w.cube {
		return w.p0 * x * x * x
	}
	return w.p0 * math.Pow(x, w.alpha)
}

// envDyn is the bound's per-link dynamic power: the lower convex envelope
// of the quantized dynamic power (see the envX field comment), falling
// back to the continuous curve for continuous models. Loads past the last
// level (infeasible, but reachable transiently inside the overload slack)
// extrapolate the final segment, which stays admissible.
func (w *Workspace) envDyn(load float64) float64 {
	k := len(w.envS) - 1
	if k < 0 {
		return w.contDyn(load)
	}
	for k > 0 && load <= w.envX[k] {
		k--
	}
	return w.envY[k] + w.envS[k]*(load-w.envX[k])
}

// pathLinks returns the link ids of candidate path j of comm ci.
func (w *Workspace) pathLinks(ci, j int) []int32 {
	l := int(w.lens[ci])
	base := int(w.arenaOff[ci]) + j*l
	return w.arena[base : base+l]
}

// cand returns comm ci's candidate visit order.
func (w *Workspace) cand(ci int) []int32 {
	return w.candBuf[w.candOff[ci]:w.candOff[ci+1]]
}

// incident returns the comms whose candidate paths touch link l.
func (w *Workspace) incident(l int) []int32 {
	return w.incBuf[w.incOff[l]:w.incOff[l+1]]
}

// charge consumes one node of the state budget; false means the node was
// denied — the budget marked the search truncated, or Options.Stop
// cancelled it. With no stop hook the fast path is unchanged; with one,
// the cost per node is a latch load plus a stride-gated predicate call on
// the count the budget already maintains.
func (w *Workspace) charge() bool {
	n := w.nodeCount.Add(1)
	if n > w.maxStates {
		w.truncated.Store(true)
		return false
	}
	if w.stop != nil {
		if w.stopped.Load() {
			return false
		}
		if n%stopNodeStride == 0 && w.stop() {
			w.stopped.Store(true)
			return false
		}
	}
	return true
}

func ensureI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func ensureF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// prepare rebuilds the instance tables into the pooled buffers: comm
// order, candidate-path arena (every Manhattan path per comm, enumerated
// in lexicographic move order — the canonical indices of the choice
// vector), identity candidate order, and the incidence CSR.
func (w *Workspace) prepare(m *mesh.Mesh, model power.Model, set comm.Set) error {
	w.mesh = m
	w.model = model
	if w.ev == nil || !w.ev.CompiledFrom(model) {
		w.ev = power.Compile(model)
	}
	w.pleak = model.Pleak
	w.p0 = model.P0
	w.alpha = model.Alpha
	unit := model.FreqUnit
	if unit == 0 {
		unit = 1
	}
	w.invUnit = 1 / unit
	w.cube = model.Alpha == 3
	w.maxOK = model.MaxBW + 1e-9

	// Build the quantized-power envelope (see the envX field comment):
	// segment nodes at 0 and each distinct positive level, slopes from the
	// continuous curve's values there.
	w.envX = append(w.envX[:0], 0)
	w.envY = w.envY[:0]
	w.envS = w.envS[:0]
	for _, f := range model.Freqs {
		w.envX = append(w.envX, f)
	}
	sort.Float64s(w.envX)
	xs := w.envX[:1]
	for _, x := range w.envX[1:] {
		if x > xs[len(xs)-1] {
			xs = append(xs, x)
		}
	}
	w.envX = xs
	for _, x := range w.envX {
		w.envY = append(w.envY, w.contDyn(x))
	}
	for k := 0; k+1 < len(w.envX); k++ {
		w.envS = append(w.envS, (w.envY[k+1]-w.envY[k])/(w.envX[k+1]-w.envX[k]))
	}
	w.envX = w.envX[:len(w.envS)]
	w.envY = w.envY[:len(w.envS)]

	// Heaviest first: conflicts surface near the root, pruning earlier.
	w.order = set.SortedInto(w.order, comm.ByWeightDesc)
	n := len(w.order)

	w.rate = ensureF64(w.rate, n)
	w.lens = ensureI32(w.lens, n)
	w.npaths = ensureI32(w.npaths, n)
	w.arenaOff = ensureI32(w.arenaOff, n+1)
	w.candOff = ensureI32(w.candOff, n+1)
	w.arena = w.arena[:0]
	totalPaths := 0
	for i, c := range w.order {
		w.rate[i] = c.Rate
		l := c.Length()
		w.lens[i] = int32(l)
		count, ok := mesh.PathCount64(c.Src, c.Dst)
		if !ok || int(count)*l > maxArenaLinks-len(w.arena) {
			return fmt.Errorf("exact: comm %d spans too many Manhattan paths for exact search", c.ID)
		}
		w.arenaOff[i] = int32(len(w.arena))
		w.candOff[i] = int32(totalPaths)
		w.enumerate(c.Src, c.Dst)
		w.npaths[i] = int32(count)
		totalPaths += int(count)
	}
	if n > 0 {
		w.arenaOff[n] = int32(len(w.arena))
		w.candOff[n] = int32(totalPaths)
	}

	// Identity candidate order; seeding re-sorts it when an incumbent is
	// found.
	w.candBuf = ensureI32(w.candBuf, totalPaths)
	for ci := 0; ci < n; ci++ {
		c := w.candBuf[w.candOff[ci]:w.candOff[ci+1]]
		for j := range c {
			c[j] = int32(j)
		}
	}

	// Incidence CSR via a two-pass counting sort; stamp dedups the links
	// a comm's paths share.
	idspace := m.LinkIDSpace()
	w.incOff = ensureI32(w.incOff, idspace+1)
	w.stamp = ensureI32(w.stamp, idspace)
	w.cnt = ensureI32(w.cnt, idspace)
	for i := 0; i < idspace; i++ {
		w.stamp[i] = -1
		w.cnt[i] = 0
	}
	for ci := 0; ci < n; ci++ {
		for _, l := range w.arena[w.arenaOff[ci]:w.arenaOff[ci+1]] {
			if w.stamp[l] != int32(ci) {
				w.stamp[l] = int32(ci)
				w.cnt[l]++
			}
		}
	}
	total := int32(0)
	for id := 0; id < idspace; id++ {
		w.incOff[id] = total
		total += w.cnt[id]
		w.cnt[id] = w.incOff[id] // becomes the fill cursor
	}
	w.incOff[idspace] = total
	w.incBuf = ensureI32(w.incBuf, int(total))
	for i := 0; i < idspace; i++ {
		w.stamp[i] = -1
	}
	for ci := 0; ci < n; ci++ {
		for _, l := range w.arena[w.arenaOff[ci]:w.arenaOff[ci+1]] {
			if w.stamp[l] != int32(ci) {
				w.stamp[l] = int32(ci)
				w.incBuf[w.cnt[l]] = int32(ci)
				w.cnt[l]++
			}
		}
	}
	w.usedLinks = w.usedLinks[:0]
	for id := 0; id < idspace; id++ {
		if w.incOff[id+1] > w.incOff[id] {
			w.usedLinks = append(w.usedLinks, int32(id))
		}
	}
	return nil
}

// enumerate appends every Manhattan path from src to dst to the arena in
// lexicographic move order (the EnumeratePaths order), as link-id
// sequences: the path is a binary string over the quadrant's two moves
// and successive strings come from the standard next-permutation step.
func (w *Workspace) enumerate(src, dst mesh.Coord) {
	m := w.mesh
	d := mesh.DirectionOf(src, dst)
	moves := d.Moves()
	a := abs(src.U - dst.U) // count of moves[0] (vertical)
	b := abs(src.V - dst.V) // count of moves[1] (horizontal)
	w.mvs = w.mvs[:0]
	for i := 0; i < a; i++ {
		w.mvs = append(w.mvs, 0)
	}
	for i := 0; i < b; i++ {
		w.mvs = append(w.mvs, 1)
	}
	for {
		c := src
		for _, bit := range w.mvs {
			nc := c.Step(moves[bit])
			w.arena = append(w.arena, int32(m.LinkIDFast(mesh.Link{From: c, To: nc})))
			c = nc
		}
		// Next permutation: rightmost "01" ascent, swap, reverse suffix.
		i := len(w.mvs) - 2
		for i >= 0 && w.mvs[i] >= w.mvs[i+1] {
			i--
		}
		if i < 0 {
			return
		}
		j := len(w.mvs) - 1
		for w.mvs[j] <= w.mvs[i] {
			j--
		}
		w.mvs[i], w.mvs[j] = w.mvs[j], w.mvs[i]
		for lo, hi := i+1, len(w.mvs)-1; lo < hi; lo, hi = lo+1, hi-1 {
			w.mvs[lo], w.mvs[hi] = w.mvs[hi], w.mvs[lo]
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// state returns worker k's search state, bound to the current instance
// and reset to zero loads.
func (w *Workspace) state(k int) *searchState {
	for len(w.pool) <= k {
		w.pool = append(w.pool, &searchState{})
	}
	s := w.pool[k]
	s.bind(w)
	return s
}

// assemble builds the routing of the incumbent choice vector from pooled
// path slots.
func (w *Workspace) assemble() route.Routing {
	n := len(w.order)
	if cap(w.flows) < n {
		w.flows = make([]route.Flow, 0, n)
	}
	flows := w.flows[:0]
	w.paths.ResetFor(w.order)
	for i, c := range w.order {
		p := w.paths.Acquire(c.ID, int(w.lens[i]))
		for _, l := range w.pathLinks(i, int(w.best.vec[i])) {
			p = append(p, w.mesh.LinkByID(int(l)))
		}
		w.paths.Set(c.ID, p)
		flows = append(flows, route.Flow{Comm: c, Path: p})
	}
	w.flows = flows
	return route.Routing{Topo: w.mesh, Flows: flows}
}
