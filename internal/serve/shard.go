package serve

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
)

// solveJob is one single-solve request handed to a shard worker. The
// routing itself never leaves the worker — it aliases the worker's pooled
// workspace — only the evaluation crosses back over done. ctx is the
// request's context (deadline and disconnect): a worker skips a job whose
// waiter already gave up, and the solver's stop poll is derived from it
// so a deadline binds mid-solve.
type solveJob struct {
	ctx    context.Context
	in     solve.Instance
	solver solve.Solver
	opts   solve.Options
	sim    *noc.Config // non-nil: also replay the routing in the NoC sim
	done   chan solveOutcome
}

// solveOutcome is the worker's answer: the power evaluation of the
// routing (feasible=false when some link exceeds the model's bandwidth),
// the optional NoC replay counters, or the solver's own error. panicked
// marks an error that was a recovered panic on the worker — the handler
// answers 500 and counts it separately from ordinary solve failures.
type solveOutcome struct {
	feasible bool
	bd       power.Breakdown
	sim      *SimResult
	err      error
	panicked bool
}

// shard is one worker of the solve pool: a queue and a goroutine that
// permanently owns its pooled scratch — the dense route.Workspace (with
// the compiled power.Evaluator and a LoadTracker per platform kept
// inside it) and a noc.Workspace for replay requests. Nothing is
// reallocated across requests; a request's cost is the solve itself plus
// the HTTP/JSON rim.
type shard struct {
	jobs   chan *solveJob
	chaos  *Chaos
	panics *atomic.Uint64 // the server's Stats.Panics counter
}

// shardScratch is the worker's permanent state.
type shardScratch struct {
	ws    *route.Workspace
	nocWS *noc.Workspace
}

func newShardScratch() *shardScratch {
	return &shardScratch{ws: route.NewWorkspace(), nocWS: noc.NewWorkspace()}
}

// run executes one job on the worker's scratch.
func (sc *shardScratch) run(job *solveJob) solveOutcome {
	opts := job.opts
	opts.Workspace = sc.ws
	r, err := job.solver.Route(job.in, opts)
	if err != nil {
		return solveOutcome{err: err}
	}
	// The routing is evaluated with the workspace's tracker for the
	// platform; the solve is done with it, and SetRouting resets it.
	sc.ws.Bind(job.in.Topology())
	t := sc.ws.Tracker()
	t.SetRouting(r)
	bd, ok := t.Evaluate(job.in.Model)
	out := solveOutcome{feasible: ok, bd: bd}
	if job.sim != nil {
		if !ok {
			out.err = fmt.Errorf("serve: routing infeasible, nothing to simulate")
			return out
		}
		sim, err := sc.nocWS.Simulator(r, job.in.Model, *job.sim)
		if err != nil {
			out.err = err
			return out
		}
		st := sim.Run()
		out.sim = &SimResult{
			Injected:  st.Injected,
			Delivered: st.Delivered,
			Stalled:   st.Stalled,
			InFlight:  st.InFlight,
		}
	}
	return out
}

// runSafe executes one job with panic containment: a panic anywhere in
// the solve (a solver bug, an injected fault) becomes a panicked outcome
// instead of crashing the service. The worker must treat its scratch as
// poisoned afterwards — the panic may have left pooled buffers in an
// arbitrary intermediate state — and rebuild before the next job.
func (sh *shard) runSafe(sc *shardScratch, job *solveJob) (out solveOutcome, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.panics.Add(1)
			out = solveOutcome{
				err:      fmt.Errorf("serve: solve panic: %v\n%s", r, debug.Stack()),
				panicked: true,
			}
			panicked = true
		}
	}()
	if sh.chaos != nil && sh.chaos.SolveStart != nil {
		if err := sh.chaos.SolveStart(job.solver.Name()); err != nil {
			return solveOutcome{err: err}, false
		}
	}
	return sc.run(job), false
}

// loop drains the shard's queue until it closes, answering every job —
// including the ones already queued when shutdown begins, so a graceful
// stop never strands a waiting request. Jobs whose request context
// already died (deadline passed, client gone) are skipped: the waiter
// stopped listening and done is buffered, so neither side blocks. After
// a recovered panic the worker discards its possibly-poisoned scratch
// and rebuilds fresh, so one bad request cannot corrupt the next
// thousand answered from the same pooled state.
func (sh *shard) loop() {
	sc := newShardScratch()
	for job := range sh.jobs {
		if job.ctx != nil && job.ctx.Err() != nil {
			continue
		}
		out, panicked := sh.runSafe(sc, job)
		job.done <- out
		if panicked {
			sc = newShardScratch()
		}
	}
}
