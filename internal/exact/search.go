package exact

import (
	"math"
	"sync"
	"sync/atomic"
)

// loadEps mirrors the power package's active-link threshold: loads at or
// below it carry no power. Search loads are exact sums of rates (backtrack
// restores them bitwise), so this only ever skips true zeros.
const loadEps = 1e-9

// searchState is one worker's view of the branch-and-bound: link loads,
// the incrementally maintained bound aggregates, the per-comm
// cheapest-increment cache, and the undo frames that restore everything
// bitwise on backtrack. States never share memory; workers meet only at
// the incumbent and the task cursor.
type searchState struct {
	w *Workspace
	n int

	// maxLen is the frame stride: the longest candidate path of the
	// instance, so depth i's undo frame lives at [i·maxLen, (i+1)·maxLen).
	maxLen int

	loads  []float64 // exact load per link id
	contOf []float64 // pleak + envDyn(load) per active link, 0 when idle
	// aggCont is Σ contOf — the routed part of the lower bound — kept as a
	// running aggregate by add/undo.
	aggCont float64
	// aggQuant is the exact quantized power of the active links — a second
	// admissible bound (per-link loads only grow down the tree and the
	// quantized power is monotone in load), far above the envelope once
	// loads push into the upper frequency levels. It is checked before the
	// envelope bound; both are pure functions of the choice prefix.
	aggQuant float64

	// minInc caches each unrouted comm's cheapest continuous dynamic-only
	// increment over its candidate paths; incOK marks entries valid.
	// add/undo invalidate only the comms incident to the links they touch.
	minInc []float64
	incOK  []bool

	choice []int32

	// Undo frames: per depth, the touched link ids and their prior load
	// and contOf values, plus the prior aggregate. Restoring the saved
	// bits (rather than subtracting back) keeps every leaf's loads a pure
	// function of its choice vector — the keystone of cross-worker
	// determinism.
	fids  []int32
	fload []float64
	fcont []float64
	fagg  []float64
	fqagg []float64
	fn    []int32
}

// bind points the state at the workspace's current instance and resets it
// to the empty routing.
func (s *searchState) bind(w *Workspace) {
	s.w = w
	s.n = len(w.order)
	maxLen := 0
	for _, l := range w.lens {
		if int(l) > maxLen {
			maxLen = int(l)
		}
	}
	s.maxLen = maxLen
	idspace := w.mesh.LinkIDSpace()
	s.loads = ensureF64(s.loads, idspace)
	s.contOf = ensureF64(s.contOf, idspace)
	for i := 0; i < idspace; i++ {
		s.loads[i] = 0
		s.contOf[i] = 0
	}
	s.aggCont = 0
	s.aggQuant = 0
	s.minInc = ensureF64(s.minInc, s.n)
	if cap(s.incOK) < s.n {
		s.incOK = make([]bool, s.n)
	}
	s.incOK = s.incOK[:s.n]
	for i := range s.incOK {
		s.incOK[i] = false
	}
	s.choice = ensureI32(s.choice, s.n)
	s.fids = ensureI32(s.fids, s.n*maxLen)
	s.fload = ensureF64(s.fload, s.n*maxLen)
	s.fcont = ensureF64(s.fcont, s.n*maxLen)
	s.fagg = ensureF64(s.fagg, s.n)
	s.fqagg = ensureF64(s.fqagg, s.n)
	s.fn = ensureI32(s.fn, s.n)
}

// add routes comm i over its candidate path j, pushing an undo frame and
// updating the bound aggregates and cache invalidations.
func (s *searchState) add(i, j int) {
	w := s.w
	rate := w.rate[i]
	links := w.pathLinks(i, j)
	base := i * s.maxLen
	s.fagg[i] = s.aggCont
	s.fqagg[i] = s.aggQuant
	s.fn[i] = int32(len(links))
	for t, l := range links {
		old := s.loads[l]
		oldC := s.contOf[l]
		s.fids[base+t] = l
		s.fload[base+t] = old
		s.fcont[base+t] = oldC
		s.loads[l] = old + rate
		nc := w.pleak + w.envDyn(old+rate)
		s.contOf[l] = nc
		s.aggCont += nc - oldC
		var oldQ float64
		if old > loadEps {
			oldQ, _ = w.ev.LinkPowerOK(old)
		}
		if newQ, ok := w.ev.LinkPowerOK(old + rate); ok {
			s.aggQuant += newQ - oldQ
		}
		for _, ci := range w.incident(int(l)) {
			s.incOK[ci] = false
		}
	}
}

// undo pops depth i's frame, restoring loads, contributions, and the
// aggregate to their saved bits and invalidating the touched comms' cache
// entries again (their loads changed back).
func (s *searchState) undo(i int) {
	w := s.w
	base := i * s.maxLen
	for t := int(s.fn[i]) - 1; t >= 0; t-- {
		l := s.fids[base+t]
		s.loads[l] = s.fload[base+t]
		s.contOf[l] = s.fcont[base+t]
		for _, ci := range w.incident(int(l)) {
			s.incOK[ci] = false
		}
	}
	s.aggCont = s.fagg[i]
	s.aggQuant = s.fqagg[i]
}

// overloads reports whether routing comm i over candidate j would push any
// link past the bandwidth.
func (s *searchState) overloads(i, j int) bool {
	rate := s.w.rate[i]
	for _, l := range s.w.pathLinks(i, j) {
		if s.loads[l]+rate > s.w.maxOK {
			return true
		}
	}
	return false
}

// minIncOf returns comm ci's cheapest envelope dynamic increment over
// its candidate paths, recomputing lazily when the cache is stale. The
// increment deliberately omits Pleak: two unrouted comms could share a
// newly activated link, so charging each the static power would overcount
// and break admissibility. Increments are non-negative (envDyn is
// increasing), so a partial sum at or past the best path can stop early.
func (s *searchState) minIncOf(ci int) float64 {
	if s.incOK[ci] {
		return s.minInc[ci]
	}
	w := s.w
	rate := w.rate[ci]
	np := int(w.npaths[ci])
	l := int(w.lens[ci])
	base := int(w.arenaOff[ci])
	best := math.Inf(1)
	for j := 0; j < np; j++ {
		sum := 0.0
		for _, id := range w.arena[base+j*l : base+(j+1)*l] {
			load := s.loads[id]
			var before float64
			if load > loadEps {
				before = s.contOf[id] - w.pleak
			}
			sum += w.envDyn(load+rate) - before
			if sum >= best {
				break
			}
		}
		if sum < best {
			best = sum
		}
	}
	s.minInc[ci] = best
	s.incOK[ci] = true
	return best
}

// bound is the admissible lower bound at depth i: power already committed
// (static + envelope dynamic of the active links, the running aggregate)
// plus each unrouted comm's cheapest envelope increment. The envelope
// never exceeds the quantized power, and its convexity makes increments
// from a shared base superadditive (the comms jointly pay at least what
// they are each charged), so no completion of this prefix can beat it.
func (s *searchState) bound(i int) float64 {
	lb := s.aggCont
	for k := i; k < s.n; k++ {
		lb += s.minIncOf(k)
	}
	return lb
}

// leafPower evaluates the complete routing exactly — quantized
// frequencies, static power of active links — scanning the instance's
// candidate links in id order so the float summation order is identical
// on every worker.
func (s *searchState) leafPower() (float64, bool) {
	w := s.w
	total := 0.0
	for _, l := range w.usedLinks {
		load := s.loads[l]
		if load <= loadEps {
			continue
		}
		p, ok := w.ev.LinkPowerOK(load)
		if !ok {
			return 0, false
		}
		total += p
	}
	return total, true
}

// dfs explores the subtree below the current depth-i prefix. Pruning is
// strict (bound must exceed the incumbent by more than boundSlack), so a
// subtree containing an optimum-tied leaf is never cut: whatever the
// incumbent's timing, every equal-power optimum is enumerated and the
// lexicographic tie-break sees them all.
func (s *searchState) dfs(i int) {
	if !s.w.charge() {
		return
	}
	if i == s.n {
		if p, ok := s.leafPower(); ok {
			s.w.best.offer(p, s.choice)
		}
		return
	}
	if inc := s.w.best.load() + boundSlack; s.aggQuant > inc || s.bound(i) > inc {
		return
	}
	for _, j := range s.w.cand(i) {
		if s.overloads(i, int(j)) {
			continue
		}
		s.choice[i] = j
		s.add(i, int(j))
		s.dfs(i + 1)
		s.undo(i)
	}
}

// incumbent is the workers' shared best-so-far. Pruning reads the power
// through a lock-free atomic; offers that match or beat it take the mutex
// and apply the full (power, lex choice vector) total order, so the
// winning vector is independent of arrival order.
type incumbent struct {
	bits  atomic.Uint64
	mu    sync.Mutex
	found bool
	power float64
	vec   []int32
}

func (b *incumbent) reset() {
	b.bits.Store(math.Float64bits(math.Inf(1)))
	b.found = false
	b.power = math.Inf(1)
	b.vec = b.vec[:0]
}

// load returns the current incumbent power (+Inf when none).
func (b *incumbent) load() float64 { return math.Float64frombits(b.bits.Load()) }

// offer installs (p, vec) if it is strictly better, or equal-power with a
// lexicographically smaller vector.
func (b *incumbent) offer(p float64, vec []int32) {
	if p > b.load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.found {
		if p > b.power || (p == b.power && !lexLess(vec, b.vec)) {
			return
		}
	}
	b.found = true
	b.power = p
	b.vec = append(b.vec[:0], vec...)
	b.bits.Store(math.Float64bits(p))
}

// lexLess reports whether a precedes b in lexicographic order.
func lexLess(a, b []int32) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// genTasks walks the top of the tree to taskD, charging and pruning like
// dfs, and emits each surviving depth-taskD prefix as one task (the
// task's own node is charged later by the worker's dfs entry).
func (w *Workspace) genTasks(s *searchState, i int) {
	if i == w.taskD {
		w.taskBuf = append(w.taskBuf, s.choice[:w.taskD]...)
		return
	}
	if !w.charge() {
		return
	}
	if inc := w.best.load() + boundSlack; s.aggQuant > inc || s.bound(i) > inc {
		return
	}
	for _, j := range w.cand(i) {
		if s.overloads(i, int(j)) {
			continue
		}
		s.choice[i] = j
		s.add(i, int(j))
		w.genTasks(s, i+1)
		s.undo(i)
	}
}

// runTask replays the task's prefix onto the worker's state, searches the
// subtree, and unwinds.
func (s *searchState) runTask(t int) {
	w := s.w
	prefix := w.taskBuf[t*w.taskD : (t+1)*w.taskD]
	for i, j := range prefix {
		s.choice[i] = j
		s.add(i, int(j))
	}
	s.dfs(w.taskD)
	for i := w.taskD - 1; i >= 0; i-- {
		s.undo(i)
	}
}
