package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/comm"
	"repro/internal/experiments"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/stats"
)

// figureTrials is the trial count per point of the sweep_figure spec:
// enough for a real sweep, few enough that a run holds hundreds of
// sweeps for the latency percentiles.
const figureTrials = 12

// figureSpec is the Figure 7(a)-shaped sweep of sweep_figure: small
// communications, n swept, the six constructive heuristics.
func figureSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		ID:       "bench-fig7a",
		Source:   "uniform",
		Params:   scenario.Params{WMin: 100, WMax: 1500},
		Axis:     scenario.AxisN,
		Points:   []float64{10, 30, 50, 70, 90},
		Trials:   figureTrials,
		Seed:     seed,
		Policies: experiments.ConstructiveNames,
	}
}

// timedSink records a span around every call into the sink it wraps.
type timedSink struct {
	inner       experiments.Sink
	tr          *Tracer
	parent, req int
}

func (s timedSink) Begin(m experiments.SweepMeta) error {
	defer s.tr.End(s.tr.Begin("experiments.sink", s.parent, s.req))
	return s.inner.Begin(m)
}

func (s timedSink) Point(pr experiments.PointResult) error {
	defer s.tr.End(s.tr.Begin("experiments.sink", s.parent, s.req))
	return s.inner.Point(pr)
}

func (s timedSink) End() error {
	defer s.tr.End(s.tr.Begin("experiments.sink", s.parent, s.req))
	return s.inner.End()
}

// sweepDigest runs the spec into a CSV and a JSONL sink, both writing
// into one hash, and returns the digest of everything they wrote. With a
// tracer, each sink call is a span under parent.
func sweepDigest(sp scenario.Spec, workers int, tr *Tracer, parent, req int) (string, error) {
	h := sha256.New()
	sinks := []experiments.Sink{experiments.NewCSVSink(h, h), experiments.NewJSONLSink(h)}
	if tr != nil {
		for i, s := range sinks {
			sinks[i] = timedSink{inner: s, tr: tr, parent: parent, req: req}
		}
	}
	if err := experiments.Sweep(sp, experiments.SweepOptions{Workers: workers}, sinks...); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// closedLoop runs back-to-back sweeps for d and returns each sweep's
// latency (ms) and digest. With a tracer each sweep is a root span.
func closedLoop(sp scenario.Spec, workers int, d time.Duration, tr *Tracer) ([]float64, []string, time.Duration, error) {
	var lat []float64
	var digests []string
	start := time.Now()
	for time.Since(start) < d {
		root := tr.Begin("sweep", -1, len(lat))
		t0 := time.Now()
		dg, err := sweepDigest(sp, workers, tr, root, len(lat))
		lat = append(lat, float64(time.Since(t0))/1e6)
		tr.End(root)
		if err != nil {
			return nil, nil, 0, err
		}
		digests = append(digests, dg)
	}
	return lat, digests, time.Since(start), nil
}

// checkDigests fails every sweep whose output differs from the serial
// (Workers=1) reference run of the same spec.
func checkDigests(rep *report, sp scenario.Spec, digests []string) error {
	ref, err := sweepDigest(sp, 1, nil, -1, 0)
	if err != nil {
		return err
	}
	for i, d := range digests {
		rep.attempted++
		if d != ref {
			rep.fail("sweep %d: output digest %s differs from the Workers=1 digest %s", i, d[:12], ref[:12])
		}
	}
	return nil
}

func runSweepFigure(o options) (*report, error) {
	rep := newReport()
	// The warm-up sweep is the same for every seed, so set-up does the
	// same work whatever instances the seed draws.
	sp, setupS, err := timedSetups(func() (scenario.Spec, error) {
		_, err := sweepDigest(figureSpec(0), o.conns, nil, -1, 0)
		return figureSpec(o.seed), err
	}, func(scenario.Spec) error { return nil })
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setupS
	trialsPerSweep := float64(len(sp.Points) * sp.Trials)
	if o.trace {
		return rep, traceSweepFigure(sp, o, rep)
	}
	hs := sampleHeap()
	lat, digests, wall, err := closedLoop(sp, o.conns, o.duration(), nil)
	peak := hs.peakMiB()
	if err != nil {
		return nil, err
	}
	if err := checkDigests(rep, sp, digests); err != nil {
		return nil, err
	}
	tail, pct := tailMS(lat)
	rep.metrics["p50_ms"] = percentile(lat, 50)
	rep.metrics["p99_ms"] = tail
	rep.metrics["max_rate_rps"] = float64(len(lat)) / wall.Seconds()
	rep.metrics["trials_per_s"] = float64(len(lat)) * trialsPerSweep / wall.Seconds()
	rep.metrics["ok_ratio"] = okRatio(rep)
	rep.metrics["peak_heap_mb"] = peak
	rep.detail["latency_samples"] = len(lat)
	rep.detail["p99_ms_percentile"] = pct
	rep.detail["workers"] = o.conns
	return rep, nil
}

// traceSweepFigure is the traced run of sweep_figure: an untraced and a
// traced closed loop of half the run each, then one sweep's trials
// replayed serially through the layer calls the engine makes.
func traceSweepFigure(sp scenario.Spec, o options, rep *report) error {
	plain, plainDigests, _, err := closedLoop(sp, o.conns, o.duration()/2, nil)
	if err != nil {
		return err
	}
	tr := NewTracer()
	traced, digests, _, err := closedLoop(sp, o.conns, o.duration()/2, tr)
	if err != nil {
		return err
	}
	if err := checkDigests(rep, sp, append(plainDigests, digests...)); err != nil {
		return err
	}
	rp, err := replayFigure(sp, tr, len(traced))
	if err != nil {
		return err
	}
	if err := rp.check(sp); err != nil {
		rep.fail("trial replay: %v", err)
	}
	spans := tr.Spans()
	ss := statsOf(spans)
	sweepNS := float64(ss.totalNS("sweep")) / float64(len(traced))
	sinkNS := float64(ss.totalNS("experiments.sink")) / float64(len(traced))
	capacity := sweepNS * float64(o.conns)
	busy := float64(rp.workNS) / capacity
	tail, _ := tailMS(plain)
	m := map[string]float64{
		"scenario.draw_us":               ss.meanUS("scenario.draw"),
		"route.evaluate_us":              ss.meanUS("route.evaluate"),
		"experiments.sink_us":            sinkNS / 1e3,
		"experiments.busy_ratio":         busy,
		"experiments.unattributed_ratio": 1 - busy - sinkNS/capacity,
		"loadgen.sent":                   float64(len(plain)),
		"p99_ms":                         tail,
		"trace.overhead_ratio":           percentile(traced, 50)/percentile(plain, 50) - 1,
		"trace.unattributed_ratio":       unattributedRatio(spans),
	}
	for _, p := range sp.Policies {
		m["solve.route_us."+p] = ss.meanUS("solve.route." + p)
		m["route.feasible_ratio."+p] = rp.feasibleRatio(p)
	}
	rp.allocs(m)
	rep.setLayers(m)
	rep.spans = spans
	rep.detail["untraced_p50_ms"] = percentile(plain, 50)
	rep.detail["traced_p50_ms"] = percentile(traced, 50)
	rep.detail["workers"] = o.conns
	return nil
}

// figureReplay is one sweep evaluated trial by trial, serially.
type figureReplay struct {
	solvers  []solve.Solver
	insts    []solve.Instance // every trial's instance, for the allocation count
	seeds    []int64
	outcomes [][][]outcome // [point][trial][policy]
	workNS   int64         // Σ trial span durations
}

type outcome struct {
	feasible bool
	pow      float64
}

// trialSeed is the engine's per-trial seed formula, (spec seed, point,
// trial) → seed, restated so the replay draws the sweep's own instances.
func trialSeed(specSeed int64, point, trial int) int64 {
	return specSeed*1_000_003 + int64(point)*10_007 + int64(trial)
}

// replayFigure replays every (point, trial) of the spec under a root span
// "replay": a "trial" span each, with children Drawer.Draw, one
// Solver.Route per policy and one LoadTracker evaluation per routing.
func replayFigure(sp scenario.Spec, tr *Tracer, req int) (*figureReplay, error) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	rp := &figureReplay{}
	for _, name := range sp.Policies {
		s, err := solve.Lookup(name)
		if err != nil {
			return nil, err
		}
		rp.solvers = append(rp.solvers, s)
	}
	ws := route.NewWorkspace()
	tracker := route.NewLoadTrackerTopo(m)
	var set comm.Set
	root := tr.Begin("replay", -1, req)
	defer tr.End(root)
	for pi, x := range sp.Points {
		drawer, err := scenario.Bind(sp.SourceName(), m, sp.At(x))
		if err != nil {
			return nil, err
		}
		var trials [][]outcome
		for trial := 0; trial < sp.Trials; trial++ {
			seed := trialSeed(sp.Seed, pi, trial)
			t0 := time.Now()
			ts := tr.Begin("trial", root, req)
			span := tr.Begin("scenario.draw", ts, req)
			set, err = drawer.Draw(seed, set)
			tr.End(span)
			if err != nil {
				return nil, err
			}
			in := solve.Instance{Mesh: m, Model: model, Comms: set}
			row := make([]outcome, len(rp.solvers))
			for si, s := range rp.solvers {
				span := tr.Begin("solve.route."+s.Name(), ts, req)
				r, err := s.Route(in, solve.Options{Seed: seed, Workspace: ws})
				tr.End(span)
				if err != nil {
					continue // no routing: a failed trial, as the engine counts it
				}
				span = tr.Begin("route.evaluate", ts, req)
				tracker.SetRouting(r)
				bd, ok := tracker.Evaluate(model)
				tr.End(span)
				row[si] = outcome{feasible: ok, pow: bd.Total()}
			}
			tr.End(ts)
			rp.workNS += int64(time.Since(t0))
			trials = append(trials, row)
			in.Comms = append(comm.Set(nil), set...)
			rp.insts = append(rp.insts, in)
			rp.seeds = append(rp.seeds, seed)
		}
		rp.outcomes = append(rp.outcomes, trials)
	}
	return rp, nil
}

// check reduces the replayed outcomes the way the paper normalizes them
// and compares the result with the sweep's own JSONL output: equal
// values mean the replay evaluated exactly the instances the engine did.
func (rp *figureReplay) check(sp scenario.Spec) error {
	var buf bytes.Buffer
	if err := experiments.Sweep(sp, experiments.SweepOptions{Workers: 1}, experiments.NewJSONLSink(&buf)); err != nil {
		return err
	}
	dec := json.NewDecoder(&buf)
	for pi := -1; pi < len(sp.Points); pi++ {
		var rec struct {
			Type         string    `json:"type"`
			NormPowerInv []float64 `json:"norm_power_inv"`
			FailureRatio []float64 `json:"failure_ratio"`
		}
		if err := dec.Decode(&rec); err != nil {
			return err
		}
		if pi < 0 {
			continue // the meta record
		}
		for si := range rp.solvers {
			var acc stats.Accumulator
			var fail stats.Ratio
			for _, row := range rp.outcomes[pi] {
				best := -1.0
				for _, o := range row {
					if o.feasible && (best < 0 || o.pow < best) {
						best = o.pow
					}
				}
				val := 0.0
				if o := row[si]; o.feasible && best > 0 {
					val = best / o.pow
				}
				acc.Add(val)
				fail.Add(!row[si].feasible)
			}
			if acc.Mean() != rec.NormPowerInv[si] || fail.Value() != rec.FailureRatio[si] {
				return fmt.Errorf("point %d %s: replay gives (%g, %g), the sweep (%g, %g)",
					pi, rp.solvers[si].Name(), acc.Mean(), fail.Value(), rec.NormPowerInv[si], rec.FailureRatio[si])
			}
		}
	}
	return nil
}

func (rp *figureReplay) feasibleRatio(policy string) float64 {
	var r stats.Ratio
	for si, s := range rp.solvers {
		if s.Name() != policy {
			continue
		}
		for _, trials := range rp.outcomes {
			for _, row := range trials {
				r.Add(row[si].feasible)
			}
		}
	}
	return r.Value()
}

// allocs measures each policy's heap allocations per warmed solve over
// the replayed instances.
func (rp *figureReplay) allocs(m map[string]float64) {
	ws := route.NewWorkspace()
	for _, s := range rp.solvers {
		m["solve.allocs."+s.Name()] = allocsPerCall(len(rp.insts), func() {
			for i, in := range rp.insts {
				_, _ = s.Route(in, solve.Options{Seed: rp.seeds[i], Workspace: ws}) // errors are answers
			}
		})
	}
}

// Cached-sweep traffic comes in blocks of cacheBlock arrivals: a
// never-seen spec sent twice at the same instant (a concurrent
// duplicate), then at even spacing one tail spec and one more never-seen
// spec; every other arrival asks for the hot head. The layout is the same
// in every block and for every seed, which draws only the specs: misses
// never overlap one another, and are few enough that hits seldom queue
// behind one on the nproc connections, so p50_ms is a hit's latency and
// p99_ms a miss's.
const (
	cacheHotSpecs  = 8
	cacheTailSpecs = 96 // more than the server's 64-entry cache
	cacheBlock     = 21
	cacheDupSlot   = 0
	cacheTailSlot  = 7
	cacheFreshSlot = 14
	cacheRate      = 200 // arrivals per second
	cacheLimit     = 50 * time.Millisecond
	cacheReplays   = 400
)

// cachedSpec is the small sweep every sweep_cached request submits; only
// the seed differs between pool entries.
func cachedSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		ID:       "bench-cached",
		Source:   "uniform",
		Params:   scenario.Params{WMin: 100, WMax: 1500},
		Axis:     scenario.AxisN,
		Points:   []float64{10, 20},
		Trials:   10,
		Seed:     seed,
		Policies: []string{"XY", "XYI", "PR"},
	}
}

// cachedPool holds the request bodies: the hot head, then the tail, then
// one fresh spec per fresh arrival.
type cachedPool struct {
	specs []scenario.Spec
	reqs  []Request
}

func (cp *cachedPool) add(sp scenario.Spec) (int, error) {
	var buf bytes.Buffer
	if err := sp.EncodeJSON(&buf); err != nil {
		return 0, err
	}
	cp.specs = append(cp.specs, sp)
	cp.reqs = append(cp.reqs, Request{Method: http.MethodPost, Path: "/sweep", Body: buf.Bytes()})
	return len(cp.reqs) - 1, nil
}

// specSeed gives the k-th distinct spec of a run its own sweep seed.
func specSeed(seed int64, k int) int64 { return seed*1_000_000 + int64(k) }

// cachedShots lays out d of cached-sweep arrivals and adds the fresh
// specs they need to the pool.
func cachedShots(cp *cachedPool, seed int64, d time.Duration) ([]Shot, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), shotStream))
	hot, tail := newDeck(rng, cacheHotSpecs), newDeck(rng, cacheTailSpecs)
	arrivals := int(cacheRate * d.Seconds())
	var shots []Shot
	for a := 0; a < arrivals; a++ {
		due := time.Duration(float64(a) / cacheRate * float64(time.Second))
		switch slot := a % cacheBlock; slot {
		case cacheTailSlot:
			shots = append(shots, Shot{Due: due, Req: cacheHotSpecs + tail.next()})
		case cacheDupSlot, cacheFreshSlot:
			k, err := cp.add(cachedSpec(specSeed(seed, len(cp.reqs))))
			if err != nil {
				return nil, err
			}
			shots = append(shots, Shot{Due: due, Req: k})
			if slot == cacheDupSlot {
				shots = append(shots, Shot{Due: due, Req: k})
			}
		default:
			shots = append(shots, Shot{Due: due, Req: hot.next()})
		}
	}
	return shots, nil
}

type cachedSetup struct {
	h  *harness
	cp *cachedPool
}

// setupCached starts the server, builds the hot and tail specs and
// submits each hot spec once, so the run starts with the head cached.
func setupCached(o options) (cachedSetup, error) {
	cp := &cachedPool{}
	for k := 0; k < cacheHotSpecs+cacheTailSpecs; k++ {
		// The hot head is the same in every run, so the set-up that caches
		// it does the same work for every seed; the seed draws the tail,
		// the fresh specs and the order.
		seed := specSeed(o.seed, k)
		if k < cacheHotSpecs {
			seed = int64(k)
		}
		if _, err := cp.add(cachedSpec(seed)); err != nil {
			return cachedSetup{}, err
		}
	}
	h, err := startServer(serve.Config{SolveShards: o.conns, SweepWorkers: o.conns}, o.conns)
	if err != nil {
		return cachedSetup{}, err
	}
	// One sweep at a time: two concurrent fills share the CPUs in a
	// different way from run to run, and set-up time would follow.
	if err := h.warmUp(cp.reqs, cacheHotSpecs, 1); err != nil {
		h.close()
		return cachedSetup{}, err
	}
	return cachedSetup{h: h, cp: cp}, nil
}

// offlineBodies returns, per pool entry, the bytes an offline
// experiments.Sweep of its spec streams through a JSONL sink: what /sweep
// must answer, hit, miss or attach. Each spec is swept once.
func offlineBodies(cp *cachedPool, workers int) func(k int) (answer, error) {
	memo := make(map[int]answer)
	return func(k int) (answer, error) {
		if w, ok := memo[k]; ok {
			return w, nil
		}
		var buf bytes.Buffer
		if err := experiments.Sweep(cp.specs[k], experiments.SweepOptions{Workers: workers}, experiments.NewJSONLSink(&buf)); err != nil {
			return answer{}, err
		}
		memo[k] = answer{body: buf.Bytes()}
		return memo[k], nil
	}
}

func runSweepCached(o options) (rep *report, err error) {
	rep = newReport()
	st, setupS, err := timedSetups(func() (cachedSetup, error) { return setupCached(o) },
		func(s cachedSetup) error { return s.h.close() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := st.h.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	rep.metrics["setup_s"] = setupS
	d := o.duration()
	if o.trace {
		d /= 2
	}
	shots, err := cachedShots(st.cp, o.seed, d)
	if err != nil {
		return nil, err
	}
	gen := &Generator{Client: st.h.client, Base: st.h.base, Conns: o.conns, Pool: st.cp.reqs, MaxLag: time.Second}
	if o.trace {
		return rep, traceCached(o, &st, gen, shots, rep)
	}
	hs := sampleHeap()
	outs, _, err := gen.Run(shots)
	peak := hs.peakMiB()
	if err != nil {
		return nil, err
	}
	if err := checkOutcomes(rep, shots, outs, offlineBodies(st.cp, o.conns)); err != nil {
		return nil, err
	}
	lat := passLatencies(shots, outs, 0, len(shots))
	tail, pct := tailMS(lat)
	rung := evalRung(shots, outs, 0, len(shots), cacheRate, cacheLimit)
	spec := cachedSpec(0)
	trials := float64(len(lat) * len(spec.Points) * spec.Trials)
	rep.metrics["p50_ms"] = percentile(lat, 50)
	rep.metrics["p99_ms"] = tail
	rep.metrics["max_rate_rps"] = maxRate([]rungResult{rung}, cacheLimit)
	rep.metrics["trials_per_s"] = trials / lastDone(outs).Seconds()
	rep.metrics["ok_ratio"] = okRatio(rep)
	rep.metrics["peak_heap_mb"] = peak
	rep.detail["rung"] = rung
	rep.detail["latency_samples"] = len(lat)
	rep.detail["p99_ms_percentile"] = pct
	rep.detail["limit_ms"] = float64(cacheLimit) / 1e6
	rep.detail["cache_header_counts"] = cacheCounts(outs)
	return rep, nil
}

func cacheCounts(outs []Outcome) map[string]int {
	c := make(map[string]int)
	for _, o := range outs {
		if !o.Dropped {
			c[o.Cache]++
		}
	}
	return c
}

// traceCached is the traced run of sweep_cached: an untraced and a traced
// pass of the same shots, then the first cacheReplays requests replayed
// in process: decode and hash for every request, plus the sweep through
// a timed JSONL sink for the ones the server answered by running it.
func traceCached(o options, st *cachedSetup, gen *Generator, shots []Shot, rep *report) error {
	// Both passes must meet the same cache state: the same cold tail
	// and fresh specs. A second server keeps the first pass's fills out
	// of the traced one.
	plain, plainStart, err := gen.Run(shots)
	if err != nil {
		return err
	}
	plainWall := time.Since(plainStart)
	want := offlineBodies(st.cp, o.conns)
	if err := checkOutcomes(rep, shots, plain, want); err != nil {
		return err
	}
	if err := st.h.close(); err != nil {
		return err
	}
	fresh, err := setupCached(o)
	if err != nil {
		return err
	}
	st.h = fresh.h
	gen.Client, gen.Base = st.h.client, st.h.base

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
	if err := checkOutcomes(rep, shots, outs, want); err != nil {
		return err
	}
	traceRequests(tr, start, shots, outs)
	byCache := make(map[string][]float64)
	for i, out := range outs {
		if !out.Dropped {
			byCache[out.Cache] = append(byCache[out.Cache], latencyMS(shots[i], out))
		}
	}
	n := min(len(shots), cacheReplays)
	var rimNS int64
	sweeps := 0
	for i := 0; i < n; i++ {
		root := tr.Begin("pipeline", -1, i)
		t0 := time.Now()
		sp := tr.Begin("serve.decode", root, i)
		spec, err := scenario.DecodeJSON(bytes.NewReader(st.cp.reqs[shots[i].Req].Body))
		tr.End(sp)
		if err != nil {
			return err
		}
		sp = tr.Begin("serve.cache.hash", root, i)
		_ = spec.Hash()
		tr.End(sp)
		if outs[i].Cache == "miss" {
			sp = tr.Begin("experiments.sweep", root, i)
			err := experiments.Sweep(spec, experiments.SweepOptions{Workers: o.conns},
				timedSink{inner: experiments.NewJSONLSink(io.Discard), tr: tr, parent: sp, req: i})
			tr.End(sp)
			if err != nil {
				return err
			}
			sweeps++
		}
		tr.End(root)
		rimNS += int64(outs[i].Done - outs[i].Sent - time.Since(t0))
	}
	loopback, err := st.h.loopbackUS(500)
	if err != nil {
		return err
	}
	spans := tr.Spans()
	ss := statsOf(spans)
	delta := statsDelta(before, after)
	lookups := float64(delta.CacheHits + delta.CacheMisses + delta.CacheAttaches)
	rim := float64(rimNS) / float64(n) / 1e3
	m := map[string]float64{
		"serve.loopback_us":         loopback,
		"serve.decode_us":           ss.meanUS("serve.decode"),
		"serve.rim_us":              rim,
		"serve.queue_handoff_us":    rim - loopback,
		"serve.canceled":            float64(delta.Canceled),
		"serve.timeouts":            float64(delta.Timeouts),
		"serve.cache.hit_ratio":     float64(delta.CacheHits) / lookups,
		"serve.cache.attach_ratio":  float64(delta.CacheAttaches) / lookups,
		"serve.cache.sweeps_run":    float64(delta.SweepsRun),
		"serve.cache.evictions":     float64(delta.CacheEvictions),
		"serve.cache.hit_p50_ms":    percentile(byCache["hit"], 50),
		"serve.cache.attach_p50_ms": percentile(byCache["attach"], 50),
		"serve.cache.miss_p50_ms":   percentile(byCache["miss"], 50),
		"trace.unattributed_ratio":  unattributedRatio(spans),
	}
	if sweeps > 0 {
		m["experiments.sink_us"] = float64(ss.totalNS("experiments.sink")) / float64(sweeps) / 1e3
	}
	plainP50, tracedP50 := passMetrics(m, shots, plain, outs)
	rep.setLayers(m)
	rep.spans = spans
	rep.detail["untraced_p50_ms"] = plainP50
	rep.detail["traced_p50_ms"] = tracedP50
	rep.detail["untraced_wall_s"] = plainWall.Seconds()
	rep.detail["replayed_requests"] = n
	rep.detail["cache_header_counts"] = cacheCounts(outs)
	return nil
}
