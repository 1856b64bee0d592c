// Package repro reproduces "Power-aware Manhattan routing on chip
// multiprocessors" (Benoit, Melhem, Renaud-Goud, Robert; INRIA RR-7752 /
// IPDPS 2012): power-aware single-path and multi-path Manhattan routing of
// static communication workloads on mesh CMPs with DVFS-scalable links.
//
// The root package carries the repository-level benchmark harness
// (bench_test.go and bench_solvers_test.go), with one benchmark per table
// and figure of the paper's evaluation plus per-policy solver benchmarks
// and allocation guards; the library lives under internal/ with
// internal/core as the public facade and internal/solve as the policy
// registry every routing family registers into.
//
// Solvers run against dense reusable workspaces (route.Workspace): pooled
// per-comm path slots, load trackers and coord bitsets replace the
// per-call map state the policies historically rebuilt, so a warmed
// workspace routes with ~zero allocations. Reuse is opt-in via
// solve.Options.Workspace; results are identical with or without it.
//
// On top of pooling sits the compiled objective engine of the refinement
// heuristics: power.Evaluator compiles a power.Model's frequency ladder
// into flat power tables (bit-identical to the per-probe Model calls),
// and route.LoadTracker offers an opt-in link→flow incidence index plus
// an aggregate observer with running pseudo-power/excess totals, a
// per-link pseudo-power cache and an exact RecomputeAggregates resync;
// route.LoadHeap keeps the most-loaded-link order incrementally (an
// indexed heap, one entry per loaded link, updated in place) in exactly
// the LinksByLoadDesc order. XYI, PR and SA run their hot loops on these;
// PR tests removability in O(1) (a link is removable from a
// communication iff its diagonal step holds another link) and retires a
// link for good once no removal applies on it. The golden figure tests
// pin the deterministic heuristics' routings bit-for-bit, a test-only
// reference Path-Remover pins PR differentially, and cmd/benchguard
// fails CI when XYI/SA ns/op regresses beyond 2x the committed
// BENCH_solvers.json baseline.
//
// The discrete-event NoC simulator (internal/noc) — the dynamic
// cross-check of the analytic evaluation — runs the same dense-workspace
// discipline: a value-typed 4-ary event heap, a freelist packet arena and
// precompiled flat path tables behind noc.Workspace/Simulator.Reset, so
// multi-trial callers (the trace scenario source, the NoC validation
// experiment) rebind one pooled simulator per trial and a warmed run
// allocates only its Stats. Horizon accounting is exact — link
// utilization is clamped to the window and Injected = Delivered +
// Stalled + InFlight — and a differential suite pins the engine
// byte-identical to the historical container/heap implementation it
// replaced. Streaming delivery observers (Simulator.Observe,
// noc.WorkloadObserver) export observed goodput without retaining trace
// events; the NoCSimSF/NoCSimCT rows of BENCH_solvers.json put both
// switching modes under cmd/benchguard's regression tripwire.
//
// The routing stack is built on a topology abstraction (internal/topo):
// topo.Topology is a directed interconnect over the mesh package's
// coordinate and link types — dense core indices, dense link
// identifiers for flat-slice load accounting, shortest-path distances,
// a deterministic shortest-route builder, and a Carrier() mesh over the
// same core set so mesh-bound workload sources run on any topology. The
// 2-D mesh is the canonical implementation and keeps its closed-form
// fast paths (Routing, trackers, workspaces and the NoC engine all hold
// the concrete *mesh.Mesh on mesh platforms, so mesh outputs are
// byte-identical to the pre-abstraction code — a differential suite
// pins this). topo/torus (wraparound mesh) and topo/circulant
// (multiplicative circulant NoCs) register themselves with topo.Parse
// ("torus:8x8", "circulant:27:1,3,9") and route via precompiled
// rtable next-hop tables; the TABLE policy (internal/tabroute) is their
// deterministic baseline router, the role XY plays on the mesh, and the
// only policy carrying the solve.TopologyAware marker. Topology
// selection threads end to end: scenario.Spec's topology field
// (hash-canonicalized, so equivalent spellings share one serve cache
// entry), the sweep engine, cmd/experiments -topology, cmd/nocsim and
// the service's /solve and /sweep endpoints. The simulator additionally
// keeps RACER-style per-component energy accounting on every run —
// per-router and per-buffer pJ/bit counters charged event by event,
// per-link leakage + frequency-dependent dynamic energy integrated over
// busy time — exported as Stats.Energy with the conservation identity
// TotalNJ = Σ router + Σ link + Σ buffer enforced by construction and
// test; the NoCSimEnergy row of BENCH_solvers.json guards its cost
// (the counters add one slab allocation per run).
//
// Workload generation mirrors the policy registry: internal/scenario
// holds a case-insensitive self-registering registry of workload sources
// (the Section 6 random families, permutation patterns, application
// traffic, trace-driven replay out of the NoC simulator) plus the
// declarative sweep Spec that round-trips through JSON. The experiment
// layer streams any Spec point by point through pluggable sinks
// (experiments.Sweep) over the pooled engine; the paper's figure panels
// are canned Specs, pinned byte-identical to the historical output by
// golden tests, and interrupted sweeps resume from their streamed CSV
// checkpoint.
//
// Sweep execution is parallel by construction: a work-stealing scheduler
// cuts the (point, trial) space into chunks on per-worker deques, and
// one persistent worker per core owns its scratch — solver workspace,
// load tracker, draw buffers, bound drawers — for the whole sweep, so
// slow points spread across idle cores instead of serializing behind
// per-point barriers. Parallelism is unobservable in the output: seeds
// depend only on (panel seed, point, trial) and a merge stage releases
// completed points to the sinks strictly in point order, so every
// SweepOptions.Workers count (0 = all cores) streams byte-identical
// CSV/JSONL and the Start resume contract is unchanged.
// BenchmarkSweepScaling feeds the committed BENCH_scaling.json
// (speedup and parallel efficiency per worker count) and
// cmd/benchguard -scaling fails CI when efficiency regresses.
//
// The same internals serve heavy traffic as a long-running service:
// cmd/routed (internal/serve) exposes single solves on a sharded worker
// pool — each shard goroutine permanently owning its pooled scratch,
// with immediate 503 backpressure when every queue is full — and
// declarative sweep submissions streamed back as JSON lines,
// byte-identical to the offline Sweep of the same spec. Completed sweeps
// are cached by the spec's canonical content hash (scenario.Spec.Hash)
// with singleflight admission: concurrent identical submissions collapse
// onto one execution, attachers stream the in-flight run point by point,
// and a warm hit replays the cached bytes without touching a solver.
// cmd/routeload load-tests the server and the committed BENCH_serve.json
// latency baseline is guarded by cmd/benchguard -serve. See README.md
// for the quickstart, the policy and source tables, the Spec schema,
// the package map and the pooling contracts.
package repro
