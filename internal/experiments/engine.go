package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/solve"
	"repro/internal/topo"
)

// engine is the pooled trial runner behind every sweep: the spec's
// policy list resolved against the solve registry once, the workload
// source resolved against the scenario registry and bound to every point
// once. Trials run on the work-stealing scheduler (steal.go): one
// persistent worker per core holds its scratch — solver workspace, load
// tracker, draw buffers, bound drawers — for the whole sweep, pulling
// (point, trial) chunks from per-worker deques with stealing, so slow
// points no longer serialize behind fast ones and nothing is torn down
// at point boundaries. Completed points flow through a merge stage that
// releases them to the sinks strictly in point order.
type engine struct {
	// tp is the platform; workload sources bind to its Carrier() grid
	// (a mesh is its own carrier).
	tp    topo.Topology
	model power.Model
	src   scenario.Source
	// points holds each point's draw params: sp.At of every x-value.
	points  []scenario.Params
	names   []string
	solvers []solve.Solver
	opts    solve.Options
	trials  int
	// bestIdx/bestFrom implement the derived-BEST shortcut: when the list
	// contains BEST alongside all six of its constituent heuristics, BEST's
	// outcome is the min over their already-computed outcomes instead of
	// re-running them through the Best solver — identical results (same
	// routings, same evaluations) at half the cost of the default line-up.
	// bestIdx is -1 when the shortcut does not apply.
	bestIdx  int
	bestFrom []int

	// stop, when non-nil, is the sweep's cancellation poll (derived from
	// SweepOptions.Context): checked before every trial and threaded into
	// solve.Options.Stop so deadlines bind inside long solves, not just
	// between them. trialStart is SweepOptions.TrialStart.
	stop       func() bool
	trialStart func(point, trial int)
}

// Check resolves a spec the way a sweep does before its first trial:
// the spec's own Validate (mesh and topology strings, their exclusivity,
// the source name), every policy name against the solve registry
// (HeuristicNames when the list is empty) and, on a non-mesh platform,
// solve.CheckTopology. It binds no source, so it stays cheap enough for
// request admission; a param/platform mismatch (a bit pattern on a 6x6
// mesh) surfaces when the sweep starts.
func Check(sp scenario.Spec) error {
	_, err := resolve(sp)
	return err
}

// resolve is Check returning what it resolved: an engine holding the
// policies' solvers and canonical names and the platform.
func resolve(sp scenario.Spec) (*engine, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	names := sp.Policies
	if len(names) == 0 {
		names = HeuristicNames
	}
	solvers, canon, err := lookup(names)
	if err != nil {
		return nil, err
	}
	e := &engine{solvers: solvers, names: canon}
	if sp.Topology == "" {
		p, q, _ := sp.MeshDims() // Validate parsed it
		e.tp = mesh.MustNew(p, q)
		return e, nil
	}
	if e.tp, err = topo.Parse(sp.Topology); err != nil {
		return nil, err
	}
	if err := solve.CheckTopology(names, e.tp); err != nil {
		return nil, err
	}
	return e, nil
}

// newEngine builds the engine of a spec whose captions and trial count
// meta already resolved: Check first, then the platform, the power model
// and every point's params, each bound once so a sweep fails loudly
// before the first trial (e.g. a bit-defined permutation on a 6x6 mesh)
// instead of mid-run on a worker.
func newEngine(sp scenario.Spec, meta SweepMeta) (*engine, error) {
	e, err := resolve(sp)
	if err != nil {
		return nil, err
	}
	e.model = power.KimHorowitz()
	e.trials = meta.Trials
	e.bestIdx = -1
	if sp.Power == "continuous" {
		e.model = power.KimHorowitzContinuous()
	}
	if e.src, err = scenario.Lookup(sp.SourceName()); err != nil {
		return nil, err
	}
	for pi, x := range meta.X {
		w := sp.At(x)
		if _, err := e.src.Bind(e.tp.Carrier(), w); err != nil {
			return nil, fmt.Errorf("experiments: %s point %d (x=%g): source %q on %v: %w",
				meta.ID, pi, x, e.src.Name(), e.tp.Carrier(), err)
		}
		e.points = append(e.points, w)
	}
	byName := make(map[string]int, len(e.names))
	for i, n := range e.names {
		byName[n] = i
	}
	if bi, ok := byName["BEST"]; ok {
		from := make([]int, 0, len(ConstructiveNames))
		for _, h := range ConstructiveNames {
			si, ok := byName[h]
			if !ok {
				from = nil
				break
			}
			from = append(from, si)
		}
		if from != nil {
			e.bestIdx, e.bestFrom = bi, from
		}
	}
	return e, nil
}

// sweepScratch is one persistent worker's private state for a whole
// sweep: the dense solver workspace and evaluation tracker live across
// every point the worker touches (the per-point scratch rebuild the old
// runner did is gone), and the per-point drawers bind lazily the first
// time this worker pulls a chunk of a point, then stay cached for every
// later chunk of it — drawers are reseeded per trial, so reuse across
// interleaved points never changes a draw.
type sweepScratch struct {
	drawers []scenario.Drawer
	set     comm.Set
	loads   *route.LoadTracker
	ws      *route.Workspace
}

func (e *engine) newSweepScratch(npts int) *sweepScratch {
	return &sweepScratch{
		drawers: make([]scenario.Drawer, npts),
		loads:   route.NewLoadTrackerTopo(e.tp),
		ws:      route.NewWorkspace(),
	}
}

// drawer returns the worker's drawer for point pi, binding it on first
// use. Bind errors are impossible here — newEngine pre-validated every
// point — so they panic rather than plumb through the pooled loop.
func (s *sweepScratch) drawer(e *engine, pi int) scenario.Drawer {
	if d := s.drawers[pi]; d != nil {
		return d
	}
	d, err := e.src.Bind(e.tp.Carrier(), e.points[pi])
	if err != nil {
		panic(fmt.Sprintf("experiments: pre-validated bind failed: %v", err))
	}
	s.drawers[pi] = d
	return d
}

// trialSeed derives the deterministic per-trial seed: the historical
// (panel seed, point, trial) formula, so refactors of the runner never
// move the figures. Seeds depend on nothing else — which is what makes
// the work-stealing execution order-independent.
func trialSeed(panelSeed int64, point, trial int) int64 {
	return panelSeed*1_000_003 + int64(point)*10_007 + int64(trial)
}

// runTrial draws and evaluates one seeded trial of one point, writing
// every policy's outcome into the trial's row.
func (e *engine) runTrial(s *sweepScratch, panelSeed int64, pi, trial int, row []instanceOutcome) error {
	if e.stop != nil && e.stop() {
		return solve.ErrStopped
	}
	if e.trialStart != nil {
		e.trialStart(pi, trial)
	}
	seed := trialSeed(panelSeed, pi, trial)
	set, err := s.drawer(e, pi).Draw(seed, s.set)
	if err != nil {
		return fmt.Errorf("experiments: point %d trial %d: %w", pi, trial, err)
	}
	s.set = set
	in := solve.Instance{Topo: e.tp, Model: e.model, Comms: set}
	opts := e.opts
	opts.Seed = seed
	opts.Workspace = s.ws
	opts.Stop = e.stop
	for si, solver := range e.solvers {
		if si == e.bestIdx {
			continue // derived below
		}
		r, err := solver.Route(in, opts)
		if err != nil {
			if errors.Is(err, solve.ErrStopped) {
				// Cancellation, not a solver failure: halt the sweep
				// instead of scoring the trial as infeasible.
				return err
			}
			// Policies that prove infeasibility (OPT) or blow a search
			// budget surface as errors; the panel counts them as
			// failures, like the paper counts heuristic failures.
			row[si] = instanceOutcome{}
			continue
		}
		s.loads.SetRouting(r)
		bd, ok := s.loads.Evaluate(e.model)
		row[si] = instanceOutcome{feasible: ok, pow: bd.Total(), static: bd.Static}
	}
	e.deriveBest(row)
	return nil
}

// pointState tracks one in-flight point: the count of chunks still
// outstanding and the point's outcome slab, acquired from the pool when
// the first chunk opens it.
type pointState struct {
	once    sync.Once
	pending atomic.Int32
	rows    []instanceOutcome
}

// outcomePool recycles per-point outcome slabs (trials×npol rows):
// merged points return their slab for the next point the scheduler
// opens, so a sweep holds about as many slabs as it has points in
// flight, however many points it sweeps.
type outcomePool struct {
	mu   sync.Mutex
	free [][]instanceOutcome
	size int
}

func (p *outcomePool) get() []instanceOutcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return make([]instanceOutcome, p.size)
}

func (p *outcomePool) put(s []instanceOutcome) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// sweep schedules the spec's (point, trial) space from the start index
// on the work-stealing fleet and hands each completed point's outcome
// rows to emit strictly in point order — the merge stage behind the
// byte-identical streaming contract: out-of-order completions buffer
// until every earlier point has been released to the sinks. An emit
// error aborts the fleet and is returned (after a trial error, which
// takes precedence).
func (e *engine) sweep(panelSeed int64, start, workers int, emit func(pi int, rows []instanceOutcome) error) error {
	npts := len(e.points)
	if start >= npts {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	npol := len(e.solvers)
	csize := chunkTrials(e.trials, workers)
	states := make([]pointState, npts)
	var chunks []chunk
	for pi := start; pi < npts; pi++ {
		var n int
		chunks, n = appendChunks(chunks, pi, e.trials, csize)
		states[pi].pending.Store(int32(n))
	}
	pool := &outcomePool{size: e.trials * npol}

	run := func(s *sweepScratch, c chunk) error {
		st := &states[c.point]
		st.once.Do(func() { st.rows = pool.get() })
		for trial := c.lo; trial < c.hi; trial++ {
			if err := e.runTrial(s, panelSeed, c.point, trial, st.rows[trial*npol:(trial+1)*npol]); err != nil {
				return err
			}
		}
		return nil
	}

	// completed receives each point index whose last chunk finished. The
	// buffer holds every point, so workers never block on a slow sink —
	// the merge loop below is the only consumer and may lag freely.
	completed := make(chan int, npts-start)
	done := func(c chunk) {
		if states[c.point].pending.Add(-1) == 0 {
			completed <- c.point
		}
	}

	var sinkErr firstError
	// The fleet halts on the first sink error or, when the sweep carries a
	// cancellation poll, as soon as it fires — workers stop pulling chunks
	// and the merge loop drains whatever already completed.
	haltFleet := sinkErr.Failed
	if e.stop != nil {
		haltFleet = func() bool { return sinkErr.Failed() || e.stop() }
	}
	var schedErr error
	sched := make(chan struct{})
	go func() {
		defer close(sched)
		defer close(completed)
		schedErr = runStealing(chunks, workers, haltFleet,
			func() *sweepScratch { return e.newSweepScratch(npts) }, run, done)
	}()

	ready := make([]bool, npts)
	next := start
	for pi := range completed {
		ready[pi] = true
		for next < npts && ready[next] && !sinkErr.Failed() {
			if err := emit(next, states[next].rows); err != nil {
				sinkErr.Report(err)
				break
			}
			pool.put(states[next].rows)
			states[next].rows = nil
			next++
		}
	}
	<-sched
	if schedErr != nil {
		return schedErr
	}
	return sinkErr.Err()
}

// deriveBest fills the BEST entry of an outcome row from its constituent
// heuristics' entries (no-op when the shortcut is off).
func (e *engine) deriveBest(row []instanceOutcome) {
	if e.bestIdx < 0 {
		return
	}
	var best instanceOutcome
	for _, si := range e.bestFrom {
		if o := row[si]; o.feasible && (!best.feasible || o.pow < best.pow) {
			best = o
		}
	}
	row[e.bestIdx] = best
}
