package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/topo"
)

// solveSpec fixes the traffic of one /solve workload.
type solveSpec struct {
	pool       int // distinct requests the shots draw from
	nMin, nMax int // communications per request
	wMin, wMax int // per-communication rate, Mb/s
	mix        []share
	sim        bool // every request also replays its routing in the NoC
	// rungs are the offered rates (req/s) of the open-loop ladder, in
	// ascending order, each held for an equal share of the run. The
	// requests of the first refRungs rungs give p50_ms and p99_ms.
	rungs    []float64
	refRungs int
	// limit is the p99 latency a rung must meet, without a growing
	// backlog, to count towards max_rate_rps.
	limit time.Duration
	// replays bounds how many requests the traced pass replays in
	// process, to keep a traced run near the length of an untraced one.
	replays int
}

// share is one policy's weight in a workload's mix. TABLE requests go to
// torus:8x8, every other policy to the 8x8 mesh.
type share struct {
	policy string
	weight int
}

// solveLight puts the serve rim in front: constructive heuristics whose
// solve is a few percent of the request. Latency is reported at the
// lowest rung, the steadiest on a shared host. The top rung is offered
// above the server's capacity on a 2-CPU host: it fails the limit, its
// achieved rate is the capacity (part of trials_per_s), and max_rate_rps
// is the middle rung's achieved rate until capacity moves past a rung.
// The pool is large so that the slowest requests, which set p99_ms, are
// many and not a few seed-dependent outliers.
var solveLight = solveSpec{
	pool: 4096, nMin: 10, nMax: 30, wMin: 100, wMax: 1500,
	mix:   []share{{"XY", 3}, {"SG", 2}, {"TB", 2}, {"XYI", 2}, {"TABLE", 1}},
	rungs: []float64{1000, 2000, 9000}, refRungs: 1,
	limit:   3 * time.Millisecond,
	replays: 2000,
}

// solveReplay puts the NoC event loop in front: every request replays
// its routing for 1000 µs of simulated time, alternating store-and-forward
// and cut-through, at rates below the replay capacity.
var solveReplay = solveSpec{
	pool: 1024, nMin: 10, nMax: 40, wMin: 100, wMax: 600,
	mix:   []share{{"PR", 1}, {"XYI", 1}, {"2MP", 1}},
	sim:   true,
	rungs: []float64{100, 200}, refRungs: 2,
	limit:   100 * time.Millisecond,
	replays: 96,
}

// Independent random streams of one seed.
const (
	poolStream = iota + 1
	shotStream
)

// draw generates the i-th pool request. The policy, the size and (for
// replays) the switching mode follow from i, so every seed's pool holds
// the same mix in the same proportions; the seed draws the endpoints and
// rates.
func (sp solveSpec) draw(rng *rand.Rand, i int) serve.SolveRequest {
	total := 0
	for _, s := range sp.mix {
		total += s.weight
	}
	k := i % total
	policy := sp.mix[0].policy
	for _, s := range sp.mix {
		if k < s.weight {
			policy = s.policy
			break
		}
		k -= s.weight
	}
	req := serve.SolveRequest{Policy: policy, Mesh: "8x8"}
	if policy == "TABLE" {
		req.Mesh, req.Topology = "", "torus:8x8"
	}
	n := sp.nMin + i*(sp.nMax-sp.nMin+1)/sp.pool
	for id := 0; id < n; id++ {
		var src, dst [2]int
		for src == dst {
			src = [2]int{1 + rng.IntN(8), 1 + rng.IntN(8)}
			dst = [2]int{1 + rng.IntN(8), 1 + rng.IntN(8)}
		}
		rate := float64(sp.wMin + rng.IntN(sp.wMax-sp.wMin+1))
		req.Comms = append(req.Comms, serve.SolveComm{ID: id, Src: src, Dst: dst, Rate: rate})
	}
	if sp.sim {
		req.Sim = &serve.SimRequest{HorizonUS: 1000, WarmupUS: 200, Switching: [2]string{"sf", "ct"}[i%2]}
	}
	return req
}

// buildPool generates the workload's distinct requests from the seed.
// Replay workloads keep only requests whose routing is feasible: an
// infeasible routing has nothing to simulate.
func (sp solveSpec) buildPool(seed int64, pl *solvePipeline) ([]Request, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), poolStream))
	var pool []Request
	for tries := 0; len(pool) < sp.pool; tries++ {
		if tries > 20*sp.pool {
			return nil, fmt.Errorf("only %d of %d drawn requests are feasible", len(pool), tries)
		}
		req := sp.draw(rng, len(pool))
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		if sp.sim {
			ok, err := pl.feasible(body)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		pool = append(pool, Request{Method: http.MethodPost, Path: "/solve", Body: body})
	}
	return pool, nil
}

// ladder schedules the rungs back to back over d, returning the shots
// and the index of each rung's first shot (plus a final end index).
func (sp solveSpec) ladder(rungs []float64, d time.Duration, pick func() int) ([]Shot, []int) {
	per := d / time.Duration(len(rungs))
	var shots []Shot
	bounds := []int{0}
	for k, rate := range rungs {
		shots = evenShots(shots, time.Duration(k)*per, rate, int(rate*per.Seconds()), pick)
		bounds = append(bounds, len(shots))
	}
	return shots, bounds
}

// solvePipeline replays a /solve body in process through the public
// layer calls the handler and a shard worker make, in their order, on
// pooled scratch like a shard's.
type solvePipeline struct {
	platforms map[string]topo.Topology
	ws        *route.Workspace
	trackers  map[string]*route.LoadTracker
	nocWS     *noc.Workspace
}

func newSolvePipeline() *solvePipeline {
	return &solvePipeline{
		platforms: make(map[string]topo.Topology),
		ws:        route.NewWorkspace(),
		trackers:  make(map[string]*route.LoadTracker),
		nocWS:     noc.NewWorkspace(),
	}
}

// prepared is a decoded and validated request, ready to route.
type prepared struct {
	in     solve.Instance
	solver solve.Solver
	opts   solve.Options
	sim    *noc.Config
}

func decodeSolve(body []byte) (serve.SolveRequest, error) {
	var req serve.SolveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// prepare resolves the platform, model and policy and validates the
// instance, like the handler does before it enqueues a job.
func (p *solvePipeline) prepare(req serve.SolveRequest) (prepared, error) {
	key := req.Topology
	if key == "" {
		key = req.Mesh
	}
	tp, ok := p.platforms[key]
	if !ok {
		var err error
		if req.Topology != "" {
			tp, err = topo.Parse(req.Topology)
		} else {
			var pp, qq int
			pp, qq, err = scenario.ParseMesh(req.Mesh)
			if err == nil {
				tp = mesh.MustNew(pp, qq)
			}
		}
		if err != nil {
			return prepared{}, err
		}
		p.platforms[key] = tp
	}
	solver, err := solve.Lookup(req.Policy)
	if err != nil {
		return prepared{}, err
	}
	set := make(comm.Set, len(req.Comms))
	for i, c := range req.Comms {
		set[i] = comm.Comm{ID: c.ID, Src: mesh.Coord{U: c.Src[0], V: c.Src[1]},
			Dst: mesh.Coord{U: c.Dst[0], V: c.Dst[1]}, Rate: c.Rate}
	}
	in := solve.Instance{Model: power.KimHorowitz(), Comms: set}
	if m, isMesh := tp.(*mesh.Mesh); isMesh {
		in.Mesh = m
	} else {
		in.Topo = tp
	}
	if err := in.Validate(); err != nil {
		return prepared{}, err
	}
	pr := prepared{in: in, solver: solver,
		opts: solve.Options{Seed: req.Seed, SAIters: req.SAIters, MaxPaths: req.MaxPaths, Workspace: p.ws}}
	if s := req.Sim; s != nil {
		pr.sim = &noc.Config{Horizon: s.HorizonUS, Warmup: s.WarmupUS, PacketBits: s.PacketBits,
			BufferPackets: s.BufferPackets, Switching: noc.StoreAndForward}
		if s.Switching == "ct" {
			pr.sim.Switching = noc.CutThrough
		}
	}
	return pr, nil
}

func (p *solvePipeline) tracker(in solve.Instance) *route.LoadTracker {
	tp := in.Topology()
	t, ok := p.trackers[tp.Spec()]
	if !ok {
		t = route.NewLoadTrackerTopo(tp)
		p.trackers[tp.Spec()] = t
	}
	return t
}

// replayed is one in-process answer: the response bytes the server must
// send, and what the checks need. The routing aliases the pipeline's
// workspace and is valid until the next replay.
type replayed struct {
	body    []byte
	resp    serve.SolveResponse
	routing route.Routing
	in      solve.Instance
}

// replay answers one /solve body, recording one span per layer call
// under parent when tr is non-nil.
func (p *solvePipeline) replay(body []byte, tr *Tracer, parent, reqID int) (replayed, error) {
	sp := tr.Begin("serve.decode", parent, reqID)
	req, err := decodeSolve(body)
	tr.End(sp)
	if err != nil {
		return replayed{}, err
	}
	sp = tr.Begin("solve.validate", parent, reqID)
	pr, err := p.prepare(req)
	tr.End(sp)
	if err != nil {
		return replayed{}, err
	}
	sp = tr.Begin("solve.route."+pr.solver.Name(), parent, reqID)
	r, err := pr.solver.Route(pr.in, pr.opts)
	tr.End(sp)
	resp := serve.SolveResponse{Policy: pr.solver.Name()}
	if err != nil {
		resp.Error = err.Error()
	} else {
		sp = tr.Begin("route.evaluate", parent, reqID)
		t := p.tracker(pr.in)
		t.SetRouting(r)
		bd, ok := t.Evaluate(pr.in.Model)
		tr.End(sp)
		resp.Feasible, resp.StaticMW, resp.DynMW, resp.TotalMW = ok, bd.Static, bd.Dynamic, bd.Total()
		switch {
		case pr.sim != nil && !ok:
			resp = serve.SolveResponse{Policy: resp.Policy, Error: "serve: routing infeasible, nothing to simulate"}
		case pr.sim != nil:
			sp = tr.Begin("noc.setup", parent, reqID)
			sim, err := p.nocWS.Simulator(r, pr.in.Model, *pr.sim)
			tr.End(sp)
			if err != nil {
				return replayed{}, err
			}
			sp = tr.Begin("noc.run", parent, reqID)
			st := sim.Run()
			tr.End(sp)
			resp.Sim = &serve.SimResult{Injected: st.Injected, Delivered: st.Delivered,
				Stalled: st.Stalled, InFlight: st.InFlight}
		}
	}
	sp = tr.Begin("serve.encode", parent, reqID)
	var out bytes.Buffer
	err = json.NewEncoder(&out).Encode(resp)
	tr.End(sp)
	return replayed{body: out.Bytes(), resp: resp, routing: r, in: pr.in}, err
}

// feasible routes and evaluates a body without simulating it.
func (p *solvePipeline) feasible(body []byte) (bool, error) {
	req, err := decodeSolve(body)
	if err != nil {
		return false, err
	}
	pr, err := p.prepare(req)
	if err != nil {
		return false, err
	}
	r, err := pr.solver.Route(pr.in, pr.opts)
	if err != nil {
		return false, nil
	}
	return route.Evaluate(r, pr.in.Model).Feasible, nil
}

// maxPathsOf is the split bound a policy's routing must respect.
func maxPathsOf(policy string) int {
	if policy == "2MP" {
		return 2
	}
	return 1
}

// expectedAnswers replays every pool entry, on workers goroutines, and
// checks the replay itself: the routing is valid for its communication
// set and path budget, its power and feasibility match the reference
// power model (not the compiled evaluator the service uses), and a
// replay's packets are all accounted for. An entry that fails a check
// fails every request that sent it.
func expectedAnswers(pool []Request, workers int) (answers, error) {
	want := make(answers, len(pool))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl := newSolvePipeline()
			for i := w; i < len(pool); i += workers {
				rp, err := pl.replay(pool[i].Body, nil, -1, i)
				if err != nil {
					errs[w] = fmt.Errorf("pool entry %d: replay: %w", i, err)
					return
				}
				want[i].body = bytes.Clone(rp.body)
				if err := checkReplay(rp); err != nil {
					want[i].problem = fmt.Errorf("pool entry %d (%s): %w", i, rp.resp.Policy, err)
				}
			}
		}()
	}
	wg.Wait()
	return want, errors.Join(errs...)
}

func checkReplay(rp replayed) error {
	resp := rp.resp
	if resp.Error != "" {
		return nil // a solver that finds no routing is an answer, not a fault
	}
	if err := rp.routing.Validate(rp.in.Comms, maxPathsOf(resp.Policy)); err != nil {
		return err
	}
	ref := route.Evaluate(rp.routing, rp.in.Model)
	if ref.Feasible != resp.Feasible {
		return fmt.Errorf("feasible %v, reference model says %v", resp.Feasible, ref.Feasible)
	}
	if resp.Feasible && math.Abs(ref.Power.Total()-resp.TotalMW) > 1e-9*math.Max(1, ref.Power.Total()) {
		return fmt.Errorf("power %.12g mW, reference model gives %.12g", resp.TotalMW, ref.Power.Total())
	}
	if s := resp.Sim; s != nil && s.Injected != s.Delivered+s.Stalled+s.InFlight {
		return fmt.Errorf("sim accounting: injected %d != delivered %d + stalled %d + in flight %d",
			s.Injected, s.Delivered, s.Stalled, s.InFlight)
	}
	return nil
}

// answer is what a pool entry must be answered with, and why no answer
// can be right when checking the expected one already failed.
type answer struct {
	body    []byte
	problem error
}

type answers []answer

func (a answers) at(req int) (answer, error) { return a[req], nil }

// checkOutcomes counts every sent shot as attempted and every error,
// non-200 status or answer differing from the expected bytes as failed.
func checkOutcomes(rep *report, shots []Shot, outs []Outcome, want func(req int) (answer, error)) error {
	for i, o := range outs {
		if o.Dropped {
			continue
		}
		rep.attempted++
		w, err := want(shots[i].Req)
		if err != nil {
			return err
		}
		switch {
		case o.Err != nil:
			rep.fail("shot %d: %v", i, o.Err)
		case o.Status != http.StatusOK:
			rep.fail("shot %d: status %d: %s", i, o.Status, bytes.TrimSpace(o.Body))
		case w.problem != nil:
			rep.fail("shot %d: %v", i, w.problem)
		case o.Sum != bodySum(w.body):
			rep.fail("shot %d (cache %q): answer differs from the expected %s", i, o.Cache, bytes.TrimSpace(w.body))
		}
	}
	return nil
}

// solveSetup is one set-up of a /solve workload.
type solveSetup struct {
	h    *harness
	pool []Request
}

func setupSolve(sp solveSpec, o options) (solveSetup, error) {
	pool, err := sp.buildPool(o.seed, newSolvePipeline())
	if err != nil {
		return solveSetup{}, err
	}
	h, err := startServer(serve.Config{SolveShards: o.conns}, o.conns)
	if err != nil {
		return solveSetup{}, err
	}
	// Warm every shard's pooled scratch and the client's connections.
	if err := h.warmUp(pool, min(len(pool), 64), o.conns); err != nil {
		h.close()
		return solveSetup{}, err
	}
	return solveSetup{h: h, pool: pool}, nil
}

func runSolve(sp solveSpec, o options) (rep *report, err error) {
	rep = newReport()
	st, setupS, err := timedSetups(func() (solveSetup, error) { return setupSolve(sp, o) },
		func(s solveSetup) error { return s.h.close() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := st.h.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	rep.metrics["setup_s"] = setupS
	gen := &Generator{Client: st.h.client, Base: st.h.base, Conns: o.conns, Pool: st.pool, MaxLag: time.Second}
	pick := newDeck(rand.New(rand.NewPCG(uint64(o.seed), shotStream)), len(st.pool)).next
	if o.trace {
		return rep, traceSolve(sp, o, st, gen, pick, rep)
	}

	shots, bounds := sp.ladder(sp.rungs, o.duration(), pick)
	hs := sampleHeap()
	outs, start, err := gen.Run(shots)
	wall := time.Since(start)
	peak := hs.peakMiB()
	if err != nil {
		return nil, err
	}

	want, err := expectedAnswers(st.pool, o.conns)
	if err != nil {
		return nil, err
	}
	if err := checkOutcomes(rep, shots, outs, want.at); err != nil {
		return nil, err
	}
	var rungs []rungResult
	for k, rate := range sp.rungs {
		rungs = append(rungs, evalRung(shots, outs, bounds[k], bounds[k+1], rate, sp.limit))
	}
	lat := passLatencies(shots, outs, 0, bounds[sp.refRungs])
	tail, pct := tailMS(lat)
	rep.metrics["p50_ms"] = percentile(lat, 50)
	rep.metrics["p99_ms"] = tail
	rep.metrics["max_rate_rps"] = maxRate(rungs, sp.limit)
	rep.metrics["trials_per_s"] = float64(len(passLatencies(shots, outs, 0, len(shots)))) / lastDone(outs).Seconds()
	rep.metrics["ok_ratio"] = okRatio(rep)
	rep.metrics["peak_heap_mb"] = peak
	if sp.sim {
		rep.metrics["sim_packets_per_s"] = float64(simDelivered(shots, outs, want)) / wall.Seconds()
	}
	rep.detail["rungs"] = rungs
	rep.detail["latency_samples"] = len(lat)
	rep.detail["p99_ms_percentile"] = pct
	rep.detail["limit_ms"] = float64(sp.limit) / 1e6
	return rep, nil
}

// traceSolve is the traced run of a /solve workload: an untraced pass
// and then a traced pass of the same shots at the lowest rung, each half
// the run. The traced pass records a root span per request (due time to
// answer) split into the generator's wait and the HTTP round trip; the
// first sp.replays requests are then replayed in process under a sibling
// pipeline span, with one child span per layer call.
func traceSolve(sp solveSpec, o options, st solveSetup, gen *Generator, pick func() int, rep *report) error {
	shots, _ := sp.ladder(sp.rungs[:1], o.duration()/2, pick)
	plain, plainStart, err := gen.Run(shots)
	if err != nil {
		return err
	}
	plainWall := time.Since(plainStart)

	tr := NewTracer()
	before, err := st.h.stats()
	if err != nil {
		return err
	}
	outs, start, err := gen.Run(shots)
	if err != nil {
		return err
	}
	after, err := st.h.stats()
	if err != nil {
		return err
	}
	want, err := expectedAnswers(st.pool, o.conns)
	if err != nil {
		return err
	}
	for _, pass := range [][]Outcome{plain, outs} {
		if err := checkOutcomes(rep, shots, pass, want.at); err != nil {
			return err
		}
	}

	traceRequests(tr, start, shots, outs)
	pl := newSolvePipeline()
	feasible := make(map[string][2]int) // policy → {feasible, replayed}
	var injected, delivered int
	var rimNS, pipeNS int64
	n := min(len(shots), sp.replays)
	for i := 0; i < n; i++ {
		root := tr.Begin("pipeline", -1, i)
		t0 := time.Now()
		rp, err := pl.replay(st.pool[shots[i].Req].Body, tr, root, i)
		d := time.Since(t0)
		tr.End(root)
		if err != nil {
			return err
		}
		pipeNS += int64(d)
		rimNS += int64(outs[i].Done - outs[i].Sent - d)
		f := feasible[rp.resp.Policy]
		f[1]++
		if rp.resp.Feasible {
			f[0]++
		}
		feasible[rp.resp.Policy] = f
		if s := rp.resp.Sim; s != nil {
			injected += s.Injected
			delivered += s.Delivered
		}
	}
	loopback, err := st.h.loopbackUS(500)
	if err != nil {
		return err
	}
	spans := tr.Spans()
	ss := statsOf(spans)
	delta := statsDelta(before, after)
	rim := float64(rimNS) / float64(n) / 1e3
	m := map[string]float64{
		"serve.loopback_us":        loopback,
		"serve.decode_us":          ss.meanUS("serve.decode"),
		"serve.encode_us":          ss.meanUS("serve.encode"),
		"serve.rim_us":             rim,
		"serve.queue_handoff_us":   rim - loopback,
		"serve.rejects":            float64(delta.SolveRejects),
		"serve.timeouts":           float64(delta.Timeouts),
		"serve.canceled":           float64(delta.Canceled),
		"solve.validate_us":        ss.meanUS("solve.validate"),
		"route.evaluate_us":        ss.meanUS("route.evaluate"),
		"noc.setup_us":             ss.meanUS("noc.setup"),
		"noc.run_us":               ss.meanUS("noc.run"),
		"trace.unattributed_ratio": unattributedRatio(spans),
	}
	for policy, f := range feasible {
		m["solve.route_us."+policy] = ss.meanUS("solve.route." + policy)
		m["route.feasible_ratio."+policy] = float64(f[0]) / float64(f[1])
	}
	if err := solveAllocs(st.pool, m); err != nil {
		return err
	}
	if delivered > 0 {
		m["noc.delivered_ratio"] = float64(delivered) / float64(injected)
		m["noc.host_ns_per_packet"] = float64(ss.totalNS("noc.run")) / float64(delivered)
		m["noc.sim_packets_per_s"] = float64(simDelivered(shots, plain, want)) / plainWall.Seconds()
	}
	plainP50, tracedP50 := passMetrics(m, shots, plain, outs)
	rep.setLayers(m)
	rep.spans = spans
	rep.detail["untraced_p50_ms"] = plainP50
	rep.detail["traced_p50_ms"] = tracedP50
	rep.detail["replayed_requests"] = n
	rep.detail["pipeline_mean_us"] = float64(pipeNS) / float64(n) / 1e3
	return nil
}

// simDelivered sums the packets the answered shots report delivered.
func simDelivered(shots []Shot, outs []Outcome, want answers) int {
	byReq := make(map[int]int)
	total := 0
	for i, out := range outs {
		if out.Dropped || out.Status != http.StatusOK {
			continue
		}
		k := shots[i].Req
		d, ok := byReq[k]
		if !ok {
			var resp serve.SolveResponse
			if json.Unmarshal(want[k].body, &resp) == nil && resp.Sim != nil {
				d = resp.Sim.Delivered
			}
			byReq[k] = d
		}
		total += d
	}
	return total
}

// allocRounds is how many solves of each pool entry the allocation count
// averages over.
const allocRounds = 4

// solveAllocs measures each policy's heap allocations per warmed solve on
// a pooled workspace, over the pool entries that use it.
func solveAllocs(pool []Request, m map[string]float64) error {
	pl := newSolvePipeline()
	byPolicy := make(map[string][]prepared)
	for _, rq := range pool {
		req, err := decodeSolve(rq.Body)
		if err != nil {
			return err
		}
		pr, err := pl.prepare(req)
		if err != nil {
			return err
		}
		byPolicy[pr.solver.Name()] = append(byPolicy[pr.solver.Name()], pr)
	}
	for policy, prs := range byPolicy {
		m["solve.allocs."+policy] = allocsPerCall(len(prs), func() {
			for _, pr := range prs {
				_, _ = pr.solver.Route(pr.in, pr.opts) // errors are answers
			}
		})
	}
	return nil
}

// allocsPerCall runs f once to warm pooled scratch, then allocRounds more
// times, and returns the heap allocations per call of the calls each
// run of f makes.
func allocsPerCall(calls int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range allocRounds {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(allocRounds*calls)
}
