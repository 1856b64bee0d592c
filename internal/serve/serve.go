// Package serve is the routing-as-a-service layer: a long-running HTTP
// front end over the pooled solver engine and the streaming sweep
// pipeline, built for sustained heavy traffic rather than one-shot CLI
// runs.
//
// Two workloads, two disciplines:
//
//   - POST /solve routes one communication set under one policy. Requests
//     run on a sharded worker pool; each shard goroutine permanently owns
//     its pooled scratch (route.Workspace with the compiled
//     power.Evaluator inside, per-geometry LoadTrackers, a noc.Workspace
//     for optional replay), so the steady-state cost of a request is the
//     solve itself. When every shard queue is full the server answers 503
//     immediately instead of letting latency grow without bound — the
//     backpressure guardrail.
//
//   - POST /sweep accepts a declarative scenario.Spec and streams the
//     sweep's per-point results back as JSON lines — byte-identical to an
//     offline experiments.Sweep of the same spec through a JSONL sink,
//     at any configured worker count. Completed sweeps are cached by the
//     spec's canonical content hash (scenario.Spec.Hash) with
//     singleflight admission: however many identical submissions race,
//     exactly one sweep executes; the rest attach to the in-flight run
//     (streaming each point as it completes) or replay the cached bytes.
//     The cache is LRU-bounded and never evicts an in-flight entry.
//
// GET /stats exposes the traffic and cache counters, GET /healthz is the
// liveness probe, GET /readyz the readiness probe (unready once a drain
// begins). Graceful shutdown is the HTTP server's: in-flight solves and
// sweep streams run to completion; Close then drains the shard queues.
//
// # Failure containment
//
// Cancellation propagates end to end: every handler carries its request
// context, so a client disconnect or a configured deadline
// (SolveTimeout, SweepTimeout) reaches the solver's stop poll mid-solve,
// not just between requests. A solo /sweep submitter disconnecting
// cancels the run it started; attached streams are refcounted, so a run
// is cancelled only when its LAST reader leaves — one impatient client
// never kills a sweep others are still streaming. Cancelled or failed
// partial runs are never cached: the cache holds only byte streams of
// sweeps that ran to completion, so a replay is always a full result.
// A panic on a pooled worker — shard or sweep — is recovered, answered
// as an error (500 on /solve, a terminal JSONL error record on /sweep),
// counted in Stats.Panics, and the possibly-poisoned pooled scratch is
// discarded and rebuilt before the worker touches the next request.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/experiments"
	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/solve"
	"repro/internal/topo"
)

// Config tunes the server. The zero value serves with sensible defaults.
type Config struct {
	// SolveShards is the number of solve workers, each owning its pooled
	// scratch for its whole lifetime (0 = GOMAXPROCS).
	SolveShards int
	// ShardQueue is each shard's pending-request bound (0 = 64). When
	// every queue is full, /solve answers 503 instead of queueing — the
	// latency guardrail under overload.
	ShardQueue int
	// SweepWorkers is the work-stealing worker count of each sweep run
	// (experiments.SweepOptions.Workers; 0 = GOMAXPROCS). Output bytes
	// are identical at every setting.
	SweepWorkers int
	// MaxSweeps bounds concurrently executing sweeps (0 = 2); further
	// cold submissions wait their turn. Identical submissions never
	// stack — singleflight collapses them onto one run.
	MaxSweeps int
	// CacheEntries bounds the completed-sweep cache (0 = 64 sweeps).
	CacheEntries int
	// MaxTrials rejects sweep submissions requesting more than this many
	// trials per point (0 = unlimited) — the knob that keeps one
	// oversized submission from monopolizing the service.
	MaxTrials int
	// SolveTimeout bounds each /solve request from enqueue to answer
	// (0 = none). Expiry answers 504 and the deadline reaches the
	// solver's stop poll, so a pathological solve abandons mid-search
	// instead of occupying its shard indefinitely.
	SolveTimeout time.Duration
	// SweepTimeout bounds each sweep execution (0 = none). Because the
	// response stream is already flowing when the deadline can expire,
	// a timed-out sweep reports in-band: a terminal JSONL error record,
	// and the partial run is never cached.
	SweepTimeout time.Duration
	// Chaos, when non-nil, injects faults at the server's seams — tests
	// and fault drills only. See the Chaos type.
	Chaos *Chaos
}

func (c Config) withDefaults() Config {
	if c.SolveShards <= 0 {
		c.SolveShards = runtime.GOMAXPROCS(0)
	}
	if c.ShardQueue <= 0 {
		c.ShardQueue = 64
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 2
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	return c
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	// Solves counts completed solve requests; SolveRejects the 503s the
	// backpressure guardrail returned with full queues.
	Solves       uint64 `json:"solves"`
	SolveRejects uint64 `json:"solve_rejects"`
	// SweepsRun counts sweep executions — cache misses that actually ran
	// the engine. CacheHits replayed a completed entry, CacheAttaches
	// joined an in-flight run, CacheEvictions dropped LRU entries.
	SweepsRun      uint64 `json:"sweeps_run"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheAttaches  uint64 `json:"cache_attaches"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CacheEntries   int    `json:"cache_entries"`
	// Panics counts panics recovered on pooled workers (shard solves and
	// sweep runs); Canceled counts work abandoned because every client
	// went away before completion; Timeouts counts SolveTimeout /
	// SweepTimeout expiries.
	Panics   uint64 `json:"panics"`
	Canceled uint64 `json:"canceled"`
	Timeouts uint64 `json:"timeouts"`
}

// Server is the routing service. Create with New, expose via Handler,
// stop with Close after the HTTP listener has shut down.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *sweepCache

	shards   []*shard
	dispatch sync.RWMutex // guards shard sends against Close
	closed   bool
	workers  sync.WaitGroup
	sweeps   sync.WaitGroup
	sem      chan struct{} // MaxSweeps tokens
	next     atomic.Uint64 // round-robin shard cursor

	platforms platformCache

	solves       atomic.Uint64
	solveRejects atomic.Uint64
	sweepsRun    atomic.Uint64
	panics       atomic.Uint64
	canceled     atomic.Uint64
	timeouts     atomic.Uint64
	draining     atomic.Bool
}

// New starts the shard workers and returns the server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		cache: newSweepCache(cfg.CacheEntries),
		sem:   make(chan struct{}, cfg.MaxSweeps),
	}
	s.shards = make([]*shard, cfg.SolveShards)
	for i := range s.shards {
		sh := &shard{jobs: make(chan *solveJob, cfg.ShardQueue), chaos: cfg.Chaos, panics: &s.panics}
		s.shards[i] = sh
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			sh.loop()
		}()
	}
	s.mux.HandleFunc("POST /solve", s.handleSolve)
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Readiness is distinct from liveness: a draining server is still
	// alive (healthz ok — don't restart it) but should receive no new
	// traffic (readyz 503 — pull it from rotation).
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips /readyz unready so load balancers stop routing new
// traffic while in-flight work runs to completion. It is idempotent and
// does not itself stop anything; call it on the shutdown signal, before
// the HTTP listener's graceful Shutdown. Close implies it.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops accepting work, waits for every queued solve to be
// answered and every in-flight sweep to finish, then releases the shard
// workers. Call it after the HTTP listener has drained its handlers.
func (s *Server) Close() {
	s.BeginDrain()
	s.dispatch.Lock()
	if !s.closed {
		s.closed = true
		for _, sh := range s.shards {
			close(sh.jobs)
		}
	}
	s.dispatch.Unlock()
	s.workers.Wait()
	s.sweeps.Wait()
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	hits, misses, attaches, evictions := s.cache.counters()
	return Stats{
		Solves:         s.solves.Load(),
		SolveRejects:   s.solveRejects.Load(),
		SweepsRun:      s.sweepsRun.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheAttaches:  attaches,
		CacheEvictions: evictions,
		CacheEntries:   s.cache.len(),
		Panics:         s.panics.Load(),
		Canceled:       s.canceled.Load(),
		Timeouts:       s.timeouts.Load(),
	}
}

// maxPlatforms caps the server's platform cache.
const maxPlatforms = 64

// platformCache is the server's one cache of parsed platforms, so every
// request on one platform shares one value: the shards' workspaces match
// it by pointer and keep their pooled state for it. An entry is keyed by
// the request's spelling with case and surrounding space folded (which
// parsing ignores), spellings of one canonical Spec share one value, and
// at most maxPlatforms entries are kept, the oldest dropped first.
type platformCache struct {
	mu    sync.RWMutex
	byKey map[string]topo.Topology
	order []string // keys, oldest first
}

// get returns the platform spelled spelling, building it with parse on
// a miss.
func (c *platformCache) get(spelling string, parse func(string) (topo.Topology, error)) (topo.Topology, error) {
	key := strings.ToLower(strings.TrimSpace(spelling))
	c.mu.RLock()
	tp := c.byKey[key]
	c.mu.RUnlock()
	if tp != nil {
		return tp, nil
	}
	parsed, err := parse(spelling)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if tp := c.byKey[key]; tp != nil {
		return tp, nil
	}
	spec := parsed.Spec()
	for _, tp := range c.byKey {
		if tp.Spec() == spec {
			parsed = tp
			break
		}
	}
	if c.byKey == nil {
		c.byKey = make(map[string]topo.Topology)
	}
	if len(c.order) == maxPlatforms {
		delete(c.byKey, c.order[0])
		c.order = append(c.order[:0], c.order[1:]...)
	}
	c.byKey[key] = parsed
	c.order = append(c.order, key)
	return parsed, nil
}

// platformFor resolves a /solve request's platform: the mesh field
// ("PxQ", default 8x8), or the topology field, which may not name a mesh.
func (s *Server) platformFor(req *SolveRequest) (topo.Topology, error) {
	if req.Topology == "" {
		spec := req.Mesh
		if spec == "" {
			spec = "8x8"
		}
		tp, err := s.platforms.get(spec, parseMesh)
		if _, ok := tp.(*mesh.Mesh); err == nil && !ok {
			_, err = parseMesh(spec) // a topology cached under this spelling
		}
		return tp, err
	}
	if req.Mesh != "" {
		return nil, fmt.Errorf("serve: both mesh %q and topology %q set — a mesh platform uses the mesh field alone", req.Mesh, req.Topology)
	}
	tp, err := s.platforms.get(req.Topology, topo.Parse)
	if err == nil && tp.Name() == "mesh" {
		return nil, fmt.Errorf("serve: topology %q is a mesh — spell it in the mesh field", req.Topology)
	}
	return tp, err
}

// parseMesh builds the mesh of a "PxQ" geometry.
func parseMesh(spec string) (topo.Topology, error) {
	p, q, err := scenario.ParseMesh(spec)
	if err != nil {
		return nil, err
	}
	return mesh.MustNew(p, q), nil
}

// modelFor resolves the power model names the scenario specs use.
func modelFor(name string) (power.Model, error) {
	switch name {
	case "", "kim-horowitz":
		return power.KimHorowitz(), nil
	case "continuous":
		return power.KimHorowitzContinuous(), nil
	}
	return power.Model{}, fmt.Errorf("serve: unknown power model %q (want kim-horowitz or continuous)", name)
}

// SolveRequest is the /solve body: one communication set, one policy.
type SolveRequest struct {
	// Mesh is the "PxQ" platform geometry ("" = 8x8).
	Mesh string `json:"mesh,omitempty"`
	// Topology selects a non-mesh platform by topo.Parse spec string
	// (e.g. "torus:8x8", "circulant:27:1,3,9"); mutually exclusive with
	// Mesh, which stays the one spelling for mesh platforms. The policy
	// must be topology-capable (TABLE).
	Topology string `json:"topology,omitempty"`
	// Policy is any registered routing policy name.
	Policy string `json:"policy"`
	// Power selects the link power model like scenario.Spec.Power.
	Power string `json:"power,omitempty"`
	// Seed drives stochastic policies (SA).
	Seed int64 `json:"seed,omitempty"`
	// SAIters and MaxPaths pass through to solve.Options.
	SAIters  int `json:"sa_iters,omitempty"`
	MaxPaths int `json:"max_paths,omitempty"`
	// Comms is the communication set to route.
	Comms []SolveComm `json:"comms"`
	// Sim, when present, also replays the routed set in the
	// discrete-event NoC simulator and reports its delivery counters.
	Sim *SimRequest `json:"sim,omitempty"`
}

// SolveComm is one communication: src/dst are [u, v] core coordinates.
type SolveComm struct {
	ID   int     `json:"id"`
	Src  [2]int  `json:"src"`
	Dst  [2]int  `json:"dst"`
	Rate float64 `json:"rate"`
}

// SimRequest configures the optional NoC replay of a solve.
type SimRequest struct {
	HorizonUS float64 `json:"horizon_us,omitempty"`
	WarmupUS  float64 `json:"warmup_us,omitempty"`
	// Switching is "sf" (store-and-forward, default) or "ct"
	// (cut-through).
	Switching     string  `json:"switching,omitempty"`
	PacketBits    float64 `json:"packet_bits,omitempty"`
	BufferPackets int     `json:"buffer_packets,omitempty"`
}

// SimResult reports the replay's packet accounting
// (Injected = Delivered + Stalled + InFlight).
type SimResult struct {
	Injected  int `json:"injected"`
	Delivered int `json:"delivered"`
	Stalled   int `json:"stalled"`
	InFlight  int `json:"in_flight"`
}

// SolveResponse is the /solve answer. A policy that finds no valid
// solution (OPT proving infeasibility, a blown search budget) is a
// result, not a transport failure: Feasible false with Error set.
type SolveResponse struct {
	Policy   string     `json:"policy"`
	Feasible bool       `json:"feasible"`
	StaticMW float64    `json:"static_mw"`
	DynMW    float64    `json:"dynamic_mw"`
	TotalMW  float64    `json:"total_mw"`
	Sim      *SimResult `json:"sim,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// simConfig translates the request's replay options.
func simConfig(r *SimRequest) (*noc.Config, error) {
	if r == nil {
		return nil, nil
	}
	cfg := &noc.Config{
		Horizon:       r.HorizonUS,
		Warmup:        r.WarmupUS,
		PacketBits:    r.PacketBits,
		BufferPackets: r.BufferPackets,
	}
	switch r.Switching {
	case "", "sf":
		cfg.Switching = noc.StoreAndForward
	case "ct":
		cfg.Switching = noc.CutThrough
	default:
		return nil, fmt.Errorf("serve: unknown switching %q (want sf or ct)", r.Switching)
	}
	return cfg, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	tp, err := s.platformFor(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	model, err := modelFor(req.Power)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	solver, err := solve.Lookup(req.Policy)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !solve.Supports(solver, tp) {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("serve: policy %s routes meshes only, not %s", solver.Name(), tp.Spec()))
		return
	}
	sim, err := simConfig(req.Sim)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	set := make(comm.Set, len(req.Comms))
	for i, c := range req.Comms {
		set[i] = comm.Comm{
			ID:   c.ID,
			Src:  mesh.Coord{U: c.Src[0], V: c.Src[1]},
			Dst:  mesh.Coord{U: c.Dst[0], V: c.Dst[1]},
			Rate: c.Rate,
		}
	}
	in := solve.Instance{Topo: tp, Model: model, Comms: set}
	if err := in.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The request context carries both failure signals a waiting solve
	// must honor: the client disconnecting and the configured deadline.
	// It reaches the shard worker (which skips jobs nobody waits on) and
	// the solver's stop poll (which abandons a search mid-solve).
	ctx := r.Context()
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	job := &solveJob{
		ctx:    ctx,
		in:     in,
		solver: solver,
		opts:   solve.Options{Seed: req.Seed, SAIters: req.SAIters, MaxPaths: req.MaxPaths},
		sim:    sim,
		done:   make(chan solveOutcome, 1),
	}
	job.opts.Stop = func() bool { return ctx.Err() != nil }
	if !s.enqueue(job) {
		s.solveRejects.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: all %d solve queues full", len(s.shards)))
		return
	}
	var out solveOutcome
	select {
	case out = <-job.done:
	case <-ctx.Done():
		// done is buffered, so a worker that already dequeued the job can
		// still deposit its (discarded) answer without blocking.
		out = solveOutcome{err: solve.ErrStopped}
	}
	// A dead context dominates however it surfaced — the select racing to
	// Done, or the worker answering first with the stop-poll's ErrStopped.
	if ctx.Err() != nil && (out.err == nil || errors.Is(out.err, solve.ErrStopped)) {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.timeouts.Add(1)
			httpError(w, http.StatusGatewayTimeout,
				fmt.Errorf("serve: solve exceeded the %v deadline", s.cfg.SolveTimeout))
		} else {
			s.canceled.Add(1)
		}
		return
	}
	s.solves.Add(1)
	if out.panicked {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("serve: internal error routing the request"))
		return
	}
	resp := SolveResponse{Policy: solver.Name()}
	if out.err != nil {
		resp.Error = out.err.Error()
	} else {
		resp.Feasible = out.feasible
		resp.StaticMW = out.bd.Static
		resp.DynMW = out.bd.Dynamic
		resp.TotalMW = out.bd.Total()
		resp.Sim = out.sim
	}
	writeJSON(w, resp)
}

// enqueue places the job on a shard queue, trying every shard from a
// round-robin start; false means every queue is full (or the server is
// closed) and the caller should shed the request.
func (s *Server) enqueue(job *solveJob) bool {
	s.dispatch.RLock()
	defer s.dispatch.RUnlock()
	if s.closed {
		return false
	}
	n := len(s.shards)
	start := int(s.next.Add(1)-1) % n
	for i := 0; i < n; i++ {
		select {
		case s.shards[(start+i)%n].jobs <- job:
			return true
		default:
		}
	}
	return false
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sp, err := scenario.DecodeJSON(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if s.cfg.MaxTrials > 0 && sp.Trials > s.cfg.MaxTrials {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("serve: %d trials/point exceeds the server's limit of %d", sp.Trials, s.cfg.MaxTrials))
		return
	}
	// Resolve the spec the way the sweep itself will — policy names, the
	// mesh-only policies a non-mesh platform rejects — so a spec the
	// engine would refuse fails here, before a cache entry exists for its
	// hash. Check binds no source — a bind allocates and seeds a
	// math/rand generator per point, too costly for a cache hit — so
	// params a source cannot bind on the spec's platform (a bit pattern
	// on a 6x6 mesh) are admitted, run, and end the stream with a
	// terminal error record.
	if err := experiments.Check(sp); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	hash := sp.Hash()
	entry, state := s.cache.acquire(hash)
	// This stream holds one reference on the entry; releasing the last
	// one cancels a still-running sweep — a solo submitter disconnecting
	// stops its run, while a run with other attached readers survives
	// any one of them leaving.
	defer s.cache.release(entry)
	if state == stateRun {
		s.sweeps.Add(1)
		go s.runSweep(sp, entry)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Routed-Spec-Hash", hash)
	w.Header().Set("X-Routed-Cache", map[cacheState]string{
		stateRun: "miss", stateAttach: "attach", stateHit: "hit",
	}[state])
	flusher, _ := w.(http.Flusher)
	var flush func()
	if flusher != nil {
		flush = flusher.Flush
	}
	err = entry.stream(r.Context(), func(p []byte) error {
		_, err := w.Write(p)
		return err
	}, flush)
	if err != nil && r.Context().Err() != nil {
		s.canceled.Add(1)
	}
}

// runSweep executes the singleflight winner's sweep into the entry:
// per-point JSONL flows to every attached stream as it is evaluated, and
// a successful run is promoted into the cache. A failed, cancelled or
// timed-out run appends one terminal error record — a deliberate
// departure from the offline format, which has no way to signal
// mid-stream failure — and is dropped from the cache so the next
// submission retries; the cache never holds a partial run. The run is
// bounded by the entry's refcounted context (cancelled when the last
// attached stream leaves) and, when configured, SweepTimeout; a panic on
// a sweep worker arrives as an experiments.PanicError and counts in
// Stats.Panics.
func (s *Server) runSweep(sp scenario.Spec, entry *sweepEntry) {
	defer s.sweeps.Done()
	ctx := entry.runCtx
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		// Every submitter left while the run was still queued behind
		// MaxSweeps: don't burn a slot computing into the void.
		s.canceled.Add(1)
		s.failSweep(entry, ctx.Err())
		return
	}
	defer func() { <-s.sem }()
	if s.cfg.SweepTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SweepTimeout)
		defer cancel()
	}
	s.sweepsRun.Add(1)
	opt := experiments.SweepOptions{Workers: s.cfg.SweepWorkers, Context: ctx}
	if c := s.cfg.Chaos; c != nil {
		opt.TrialStart = c.TrialStart
	}
	err := func() (err error) {
		// The merge stage and the sinks run on this goroutine; contain
		// their panics like the engine contains its workers'.
		defer func() {
			if r := recover(); r != nil {
				s.panics.Add(1)
				err = fmt.Errorf("serve: sweep panic: %v", r)
			}
		}()
		if c := s.cfg.Chaos; c != nil && c.SweepStart != nil {
			if err := c.SweepStart(entry.hash); err != nil {
				return err
			}
		}
		return experiments.Sweep(sp, opt, experiments.NewJSONLSink(entry))
	}()
	if err == nil {
		entry.finish(nil)
		s.cache.complete(entry)
		return
	}
	var pe *experiments.PanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
	case errors.Is(err, context.Canceled):
		s.canceled.Add(1)
	case errors.As(err, &pe):
		s.panics.Add(1)
	}
	s.failSweep(entry, err)
}

// failSweep terminates a run that produced no complete result: one
// in-band error record for whoever is still streaming, then the entry is
// finished and abandoned so it can never be replayed from the cache.
func (s *Server) failSweep(entry *sweepEntry, err error) {
	line, _ := json.Marshal(map[string]string{"type": "error", "error": err.Error()})
	entry.Write(append(line, '\n'))
	entry.finish(err)
	s.cache.abandon(entry)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
