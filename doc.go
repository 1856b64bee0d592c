// Package repro reproduces "Power-aware Manhattan routing on chip
// multiprocessors" (Benoit, Melhem, Renaud-Goud, Robert; INRIA RR-7752 /
// IPDPS 2012): power-aware single-path and multi-path Manhattan routing of
// static communication workloads on mesh CMPs with DVFS-scalable links.
//
// The root package carries the repository-level benchmark harness
// (bench_test.go and bench_solvers_test.go), with one benchmark per table
// and figure of the paper's evaluation plus per-policy solver benchmarks
// and allocation guards, and TestEmitBenchJSON (bench_record_test.go),
// which writes one bench record for cmd/benchguard; the library lives
// under internal/ with
// internal/solve as its entry point: solve.Instance describes a routing
// problem and solve.Route routes it with any policy of the registry every
// routing family registers into (importing internal/experiments registers
// them all). A root test keeps exported functions honest: each must have
// a caller outside tests, or be a test oracle listed with its reason.
//
// Solvers run against dense reusable workspaces (route.Workspace): pooled
// per-comm path slots, load trackers and dense per-link buffers replace the
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
// communication iff its diagonal step holds another link), retires a
// link for good once no removal applies on it, and cleans paths by
// cascading live-link bits per bounding-box core, so a removal's
// cleaning costs the links it kills. IG answers its power-to-go bound
// from a per-core table of least out-link loads filled once per
// communication: on every remaining diagonal the candidate's sub-box is
// a contiguous range of that table. Both enumerate frontiers by dense
// link id (mesh.AppendFrontierIDs); a PR removal shifts its shares in
// one pass and re-pushes only the links whose load moved. XYI retires a
// link on which no move improves together with its candidates, each with
// the signed reads of its span swap: after a move it re-evaluates only
// the moved flow's candidates and the ones that read a changed load, and
// wakes a link only when one of them improves. It also skips the power
// probes of candidates that raise the overload excess. The golden figure tests pin the deterministic
// heuristics' routings bit-for-bit, test-only reference Path-Remover,
// XY-Improver and Improved Greedy engines pin PR, XYI and IG
// differentially, and cmd/benchguard fails CI when IG/PR/XYI/SA ns/op,
// each over the same session's XY ns/op, regresses beyond 2x the
// committed BENCH_baseline.jsonl.
//
// The discrete-event NoC simulator (internal/noc) — the dynamic
// cross-check of the analytic evaluation — runs the same dense-workspace
// discipline: a calendar event queue in exact (time, key) order whose
// buckets link through one int32-indexed node arena, a freelist packet
// arena and precompiled flat path tables behind
// noc.Workspace/Simulator.Reset, so multi-trial callers (the trace
// scenario source, the NoC validation experiment) rebind one pooled
// simulator per trial and a warmed run allocates only its Stats. Horizon
// accounting is exact — link utilization is clamped to the window and
// Injected = Delivered + Stalled + InFlight — and a differential suite
// and FuzzSimVsReference pin the engine byte-identical to the historical
// container/heap implementation it replaced. Streaming delivery observers (Simulator.Observe,
// noc.WorkloadObserver) export observed goodput without retaining trace
// events; the NoCSimSF/NoCSimCT rows of the bench record put both
// switching modes under cmd/benchguard's regression tripwire.
//
// The routing stack is built on a topology abstraction (internal/topo):
// topo.Topology is a directed interconnect over the mesh package's
// coordinate and link types — dense core indices, dense link
// identifiers for flat-slice load accounting, shortest-path distances,
// a deterministic shortest-route builder, and a Carrier() mesh over the
// same core set so mesh-bound workload sources run on any topology. The
// 2-D mesh is the canonical implementation. Below solve.Instance the
// platform is one topo.Topology value (route.Routing.Topo, the
// workspace's bound platform, the sweep engine's and the service's); the
// mesh keeps its closed-form fast paths through one type assertion where
// the platform is bound, so mesh outputs are byte-identical to the
// pre-abstraction code — a differential suite pins this. solve.Instance
// keeps two spellings of the platform, Mesh and Topo: the paper's
// examples and external callers set Mesh, other platforms set Topo, and
// either may hold a mesh; Instance.Topology reads the one value, and the
// Manhattan policy families take their mesh from it through
// Instance.OnMesh, which names any other platform in its error. A
// route.Workspace keeps the load tracker and policy scratch of each
// bound platform (a small set, matched by pointer, then by Spec), so a
// service shard alternating between a mesh and a torus rebuilds nothing. topo/torus (wraparound mesh) and topo/circulant
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
// test; the NoCSimEnergy row of the bench record guards its cost
// (the counters add one slab allocation per run).
//
// Workload generation mirrors the policy registry: internal/scenario
// holds a case-insensitive self-registering registry of workload sources
// (the Section 6 random families, permutation patterns, application
// traffic, trace-driven replay out of the NoC simulator) plus the
// declarative sweep Spec that round-trips through JSON. The Spec is the
// experiment layer's only sweep description: one streaming loop runs any
// Spec point by point through pluggable sinks over the pooled engine, as
// a power sweep (experiments.Sweep) or an optimality-gap report
// (experiments.OptGap), and experiments.Check — that loop's first step —
// is what routed's /sweep admits specs through. Both reports stream the
// same record (experiments.PointResult) into one sink family: a report's
// layout (experiments.PowerLayout, experiments.GapLayout) lists its output
// tables, and the one CSV writer and the one table writer write whatever
// layout the sweep hands them. The paper's figure panels are canned
// Specs, pinned byte-identical to the historical output by golden tests,
// and interrupted sweeps resume from their streamed checkpoint files.
//
// Sweep execution is parallel by construction: the (point, trial) space
// is cut into chunks, and one persistent worker per core (internal/par,
// the pool the exact solver's subtree search shares) takes them in
// index order from one shared cursor while owning its scratch — solver
// workspace, load tracker, draw buffers, bound drawers — for the whole
// sweep, so slow points spread across idle cores instead of serializing
// behind per-point barriers. Parallelism is unobservable in the output: seeds
// depend only on (spec seed, point, trial) and a merge stage releases
// completed points to the sinks strictly in point order, so every
// SweepOptions.Workers count (0 = all cores) streams byte-identical
// CSV/JSONL and the Start resume contract is unchanged.
// BenchmarkSweepScaling measures it at 1, 2, 4 and NumCPU workers (never
// more than NumCPU); the bench record carries the speedup and parallel
// efficiency per worker count, and cmd/benchguard fails CI when
// efficiency regresses.
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
// cmd/routeload load-tests the server, and cmd/benchguard guards the
// bench record's endpoint latencies. See README.md
// for the quickstart, the policy and source tables, the Spec schema,
// the package map and the pooling contracts.
package repro
