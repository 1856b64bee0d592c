package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

func init() {
	Register(randomSource{})
	for _, p := range workload.Patterns() {
		pat := p
		Register(patternSource{
			name: permName(pat),
			build: func(m *mesh.Mesh, _ Params) (comm.Set, error) {
				return workload.Permutation(m, nil, pat, 1)
			},
		})
	}
	Register(patternSource{name: "transpose", build: buildTranspose})
	Register(patternSource{name: "stencil", build: buildStencil})
	Register(patternSource{name: "pipeline", build: buildPipeline, axisN: true})
	Register(hotspotSource{})
	Register(traceSource{})
}

// permName maps a workload.Pattern to its registry name.
func permName(p workload.Pattern) string {
	switch p {
	case workload.BitComplement:
		return "bitcomp"
	case workload.BitReverse:
		return "bitrev"
	case workload.Shuffle:
		return "shuffle"
	case workload.Tornado:
		return "tornado"
	case workload.Neighbor:
		return "neighbor"
	}
	panic(fmt.Sprintf("scenario: unnamed pattern %v", p))
}

// randomSource is the Section 6 random family: independently random
// source/sink pairs ("uniform") or pairs at an exact Manhattan length
// when Params.Length is set (the §6.3 sweeps), with weights uniform in
// [WMin, WMax].
type randomSource struct{}

func (randomSource) Name() string { return "uniform" }

func (randomSource) Axes() []string { return []string{AxisN, AxisWeight, AxisLength} }

func (randomSource) Bind(m *mesh.Mesh, p Params) (Drawer, error) {
	if p.N <= 0 {
		return nil, fmt.Errorf("needs n > 0 communications")
	}
	if err := p.validateWeights(); err != nil {
		return nil, err
	}
	if p.WMax <= 0 {
		return nil, fmt.Errorf("needs a weight range wmin..wmax")
	}
	if m.NumCores() < 2 {
		return nil, fmt.Errorf("needs at least 2 cores")
	}
	if p.Length != 0 {
		if max := m.P() + m.Q() - 2; p.Length < 1 || p.Length > max {
			return nil, fmt.Errorf("no core pair at distance %d (valid: 1..%d)", p.Length, max)
		}
	}
	return &randomDrawer{gen: workload.New(m, 0), p: p}, nil
}

type randomDrawer struct {
	gen *workload.Generator
	p   Params
}

func (d *randomDrawer) Draw(seed int64, dst comm.Set) (comm.Set, error) {
	return DrawRandom(d.gen, seed, d.p, dst)
}

// DrawRandom draws the Section 6 random family for an explicit params
// value on a caller-owned generator — the hook for pooled loops (e.g. the
// §6.4 summary) whose tasks mix many params over one per-worker
// generator. The draws are identical to the "uniform" source's.
func DrawRandom(gen *workload.Generator, seed int64, p Params, dst comm.Set) (comm.Set, error) {
	gen.Reseed(seed)
	if p.Length > 0 {
		return gen.TargetLengthInto(dst, p.N, p.WMin, p.WMax, p.Length), nil
	}
	return gen.UniformInto(dst, p.N, p.WMin, p.WMax), nil
}

// patternSource adapts a deterministic traffic builder (permutations,
// transposes, stencils, pipelines) to the registry: Bind materializes the
// pattern's source/sink pairs once as a template, Draw stamps rates onto
// a copy — the fixed Params.Rate, or per-flow uniform draws from
// [WMin, WMax] when Rate is zero.
type patternSource struct {
	name  string
	build func(m *mesh.Mesh, p Params) (comm.Set, error)
	// axisN marks builders that consume Params.N (pipeline stages).
	axisN bool
}

func (s patternSource) Name() string { return s.name }

func (s patternSource) Axes() []string {
	axes := []string{AxisRate, AxisWeight}
	if s.axisN {
		axes = append(axes, AxisN)
	}
	return axes
}

func (s patternSource) Bind(m *mesh.Mesh, p Params) (Drawer, error) {
	if err := p.validateWeights(); err != nil {
		return nil, err
	}
	if !p.rated() {
		return nil, fmt.Errorf("needs a fixed rate or a weight range wmin..wmax")
	}
	tmpl, err := s.build(m, p)
	if err != nil {
		return nil, err
	}
	if len(tmpl) == 0 {
		return nil, fmt.Errorf("pattern produces no traffic")
	}
	return &patternDrawer{tmpl: tmpl, p: p, rng: rand.New(rand.NewSource(0))}, nil
}

type patternDrawer struct {
	tmpl comm.Set
	p    Params
	rng  *rand.Rand
}

func (d *patternDrawer) Draw(seed int64, dst comm.Set) (comm.Set, error) {
	dst = append(dst[:0], d.tmpl...)
	if d.p.Rate > 0 {
		for i := range dst {
			dst[i].Rate = d.p.Rate
		}
		return dst, nil
	}
	d.rng.Seed(seed)
	span := d.p.WMax - d.p.WMin
	for i := range dst {
		dst[i].Rate = d.p.WMin + d.rng.Float64()*span
	}
	return dst, nil
}

func buildTranspose(m *mesh.Mesh, _ Params) (comm.Set, error) {
	if m.P() != m.Q() {
		return nil, fmt.Errorf("transpose needs a square mesh, got %v", m)
	}
	return workload.Transpose(m, nil, mesh.Box{UMin: 1, VMin: 1, UMax: m.P(), VMax: m.Q()}, 1)
}

func buildStencil(m *mesh.Mesh, _ Params) (comm.Set, error) {
	return workload.Stencil(m, nil, mesh.Box{UMin: 1, VMin: 1, UMax: m.P(), VMax: m.Q()}, 1)
}

func buildPipeline(m *mesh.Mesh, p Params) (comm.Set, error) {
	stages := p.N
	if stages == 0 {
		stages = m.NumCores()
	}
	if stages < 2 {
		return nil, fmt.Errorf("pipeline needs at least 2 stages, got %d", stages)
	}
	return workload.Pipeline(m, nil, mesh.Coord{U: 1, V: 1}, stages, 1)
}

// hotspotSource concentrates traffic on the mesh-center core (the
// single-destination regime of Theorem 1): Params.N seeded random source
// cores per draw (all cores when N is 0) each send to the center.
type hotspotSource struct{}

func (hotspotSource) Name() string { return "hotspot" }

func (hotspotSource) Axes() []string { return []string{AxisN, AxisRate, AxisWeight} }

func (hotspotSource) Bind(m *mesh.Mesh, p Params) (Drawer, error) {
	if err := p.validateWeights(); err != nil {
		return nil, err
	}
	if !p.rated() {
		return nil, fmt.Errorf("needs a fixed rate or a weight range wmin..wmax")
	}
	if m.NumCores() < 2 {
		return nil, fmt.Errorf("needs at least 2 cores")
	}
	sink := mesh.Coord{U: (m.P() + 1) / 2, V: (m.Q() + 1) / 2}
	pool := make([]int, 0, m.NumCores()-1)
	for i := 0; i < m.NumCores(); i++ {
		if m.CoordAt(i) != sink {
			pool = append(pool, i)
		}
	}
	if p.N < 0 {
		return nil, fmt.Errorf("negative hotspot source count %d", p.N)
	}
	if p.N > len(pool) {
		return nil, fmt.Errorf("%d hotspot sources requested but only %d non-sink cores", p.N, len(pool))
	}
	return &hotspotDrawer{
		m: m, p: p, sink: sink,
		base: pool, pool: make([]int, len(pool)),
		rng: rand.New(rand.NewSource(0)),
	}, nil
}

type hotspotDrawer struct {
	m    *mesh.Mesh
	p    Params
	sink mesh.Coord
	base []int // non-sink core indices in canonical order
	pool []int // per-draw shuffle buffer, reset from base each draw
	rng  *rand.Rand
}

func (d *hotspotDrawer) Draw(seed int64, dst comm.Set) (comm.Set, error) {
	d.rng.Seed(seed)
	// Reset the shuffle buffer so the draw depends only on the seed, not
	// on the drawer's history — the Drawer determinism contract.
	copy(d.pool, d.base)
	n := d.p.N
	if n == 0 {
		n = len(d.pool)
	} else {
		// Partial Fisher–Yates: the first n entries become a uniform
		// sample of distinct source cores.
		for i := 0; i < n; i++ {
			j := i + d.rng.Intn(len(d.pool)-i)
			d.pool[i], d.pool[j] = d.pool[j], d.pool[i]
		}
	}
	span := d.p.WMax - d.p.WMin
	dst = dst[:0]
	for i := 0; i < n; i++ {
		rate := d.p.Rate
		if rate == 0 {
			rate = d.p.WMin + d.rng.Float64()*span
		}
		dst = append(dst, comm.Comm{ID: i, Src: d.m.CoordAt(d.pool[i]), Dst: d.sink, Rate: rate})
	}
	return dst, nil
}

// Trace source defaults: a light offered load that the PR heuristic
// routes feasibly on most seeds, replayed in the simulator long enough
// for goodput to stabilize.
const (
	traceDefaultN    = 12
	traceDefaultWMin = 100
	traceDefaultWMax = 900
	tracePacketBits  = 2048
	traceHorizonUS   = 2000
	traceWarmupUS    = 500
	traceMaxAttempts = 50
	traceAttemptBump = 101
)

// traceSource is the trace-driven generator: each draw offers a seeded
// uniform workload (N, WMin, WMax), routes it with the PR heuristic,
// replays it in the discrete-event NoC simulator with a streaming
// delivery observer attached, and exports the observed per-communication
// goodput as the communication set (noc.WorkloadObserver) — traffic as
// the chip actually delivered it, contention and all. The drawer pools
// one simulator across draws (noc.Workspace) and the observer retains
// only per-comm bit totals, so a draw costs no event retention and no
// per-draw simulator construction no matter how long the replay runs.
// Seeds whose offered load is PR-infeasible are skipped
// deterministically, like the NoC cross-validation experiment. Draws
// still run a full simulation, so the source remains heavier than the
// synthetic ones; use small trial counts.
type traceSource struct{}

func (traceSource) Name() string { return "trace" }

func (traceSource) Axes() []string { return []string{AxisN, AxisWeight} }

func (traceSource) Bind(m *mesh.Mesh, p Params) (Drawer, error) {
	if p.N == 0 {
		p.N = traceDefaultN
	}
	if p.WMax == 0 {
		p.WMin, p.WMax = traceDefaultWMin, traceDefaultWMax
	}
	if p.N < 0 {
		return nil, fmt.Errorf("needs n > 0 communications")
	}
	if err := p.validateWeights(); err != nil {
		return nil, err
	}
	if m.NumCores() < 2 {
		return nil, fmt.Errorf("needs at least 2 cores")
	}
	return &traceDrawer{
		m: m, p: p, model: power.KimHorowitz(),
		gen: workload.New(m, 0), sims: noc.NewWorkspace(),
	}, nil
}

type traceDrawer struct {
	m       *mesh.Mesh
	p       Params
	model   power.Model
	gen     *workload.Generator
	offered comm.Set
	sims    *noc.Workspace
	obs     noc.WorkloadObserver
}

func (d *traceDrawer) Draw(seed int64, dst comm.Set) (comm.Set, error) {
	for attempt := 0; attempt < traceMaxAttempts; attempt++ {
		d.gen.Reseed(seed + int64(attempt)*traceAttemptBump)
		d.offered = d.gen.UniformInto(d.offered, d.p.N, d.p.WMin, d.p.WMax)
		r, err := heur.PR{}.Route(solve.Instance{Mesh: d.m, Model: d.model, Comms: d.offered}, solve.Options{})
		if err != nil {
			return nil, err
		}
		res := route.Evaluate(r, d.model)
		if !res.Feasible {
			continue
		}
		sim, err := d.sims.Simulator(res.Routing, d.model, noc.Config{
			Horizon: traceHorizonUS, Warmup: traceWarmupUS, PacketBits: tracePacketBits,
		})
		if err != nil {
			continue
		}
		if err := d.obs.Reset(d.offered, traceWarmupUS, traceHorizonUS); err != nil {
			return nil, err
		}
		sim.Observe(d.obs.Record)
		sim.Run()
		out, err := d.obs.Export(dst)
		if err != nil {
			return nil, err
		}
		if len(out) == 0 {
			continue
		}
		return out, nil
	}
	return nil, fmt.Errorf("scenario: no feasible trace instance within %d attempts of seed %d", traceMaxAttempts, seed)
}
