// The bench record: every speed figure cmd/benchguard guards, plus the
// unguarded allocation and sweep-point rows, measured in one session and
// written as one record of perfbench's result shape.
package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/workload"
)

// benchRecord is one measuring session: perfbench's environment block
// and a flat metric table.
type benchRecord struct {
	Environment struct {
		NumCPU       int    `json:"num_cpu"`
		GOMAXPROCS   int    `json:"gomaxprocs"`
		GoVersion    string `json:"go_version"`
		Commit       string `json:"commit"`
		SourceSHA256 string `json:"source_sha256"`
		Workers      int    `json:"workers"`
		// CPULimited marks a session with more workers than CPUs.
		CPULimited bool `json:"cpu_limited"`
	} `json:"environment"`
	Metrics map[string]benchMetric `json:"metrics"`
}

type benchMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *benchRecord) set(name string, value float64, unit string) {
	r.Metrics[name] = benchMetric{Value: value, Unit: unit}
}

// perOp records the name.ns_per_op, .allocs_per_op and .bytes_per_op
// rows of a benchmark loop, each taken from the fastest of three runs:
// single runs of the XY reference are bimodal on a shared machine.
func (r *benchRecord) perOp(name string, loop func(b *testing.B)) {
	var best testing.BenchmarkResult
	for i := 0; i < 3; i++ {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			loop(b)
		})
		if i == 0 || res.NsPerOp() < best.NsPerOp() {
			best = res
		}
	}
	r.set(name+".ns_per_op", float64(best.NsPerOp()), "ns")
	r.set(name+".allocs_per_op", float64(best.AllocsPerOp()), "allocs")
	r.set(name+".bytes_per_op", float64(best.AllocedBytesPerOp()), "B")
}

// sweepScalingWorkers is {1, 2, 4, NumCPU} ∩ [1, NumCPU], ascending: the
// scaling runs never measure more workers than the machine has CPUs.
var sweepScalingWorkers = func() []int {
	counts := []int{1}
	for _, w := range []int{2, 4, runtime.NumCPU()} {
		if w <= runtime.NumCPU() && w > counts[len(counts)-1] {
			counts = append(counts, w)
		}
	}
	return counts
}()

// TestEmitBenchJSON writes one bench record to the path in BENCH_JSON:
// per-policy ns/op and allocs/op under workspace reuse, the pooled NoC
// simulator, a streamed sweep point, the sweep's parallel scaling and the
// routed endpoints' latencies. Without the variable the test is a no-op.
func TestEmitBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("BENCH_JSON not set")
	}
	rec := benchRecord{Metrics: map[string]benchMetric{}}
	env := &rec.Environment
	env.NumCPU, env.GOMAXPROCS, env.GoVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	env.Commit, env.SourceSHA256 = gitCommit(), sourceDigest()
	env.Workers = sweepScalingWorkers[len(sweepScalingWorkers)-1]
	env.CPULimited = env.Workers > env.NumCPU

	in := solverBenchInstance()
	for _, name := range solverBenchNames {
		rec.perOp(name, solveLoop(t, name, in, solve.Options{Workspace: route.NewWorkspace()}))
	}
	rec.perOp("OPT", solveLoop(t, "OPT", optBenchInstance(), optBenchOptions(route.NewWorkspace())))
	rec.perOp("NoCSimSF", nocSimLoop(t, noc.Config{Horizon: 1000, Warmup: 200, Switching: noc.StoreAndForward}))
	rec.perOp("NoCSimCT", nocSimLoop(t, noc.Config{Horizon: 1000, Warmup: 200, Switching: noc.CutThrough}))
	rec.perOp("NoCSimEnergy", nocSimLoop(t, nocEnergyBenchConfig()))

	const pointTrials, scalingTrials = 32, 16
	rec.set("sweep_point.trials", pointTrials, "trials")
	rec.perOp("sweep_point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runBenchSweep(b, pointTrials)
		}
	})
	// Efficiency is the speedup over the serial run per worker.
	rec.set("sweep_scaling.trials", scalingTrials, "trials")
	for _, w := range sweepScalingWorkers {
		row := fmt.Sprintf("sweep_scaling.w%d", w)
		rec.perOp(row, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runScalingSweep(b, w, scalingTrials)
			}
		})
		speedup := rec.Metrics["sweep_scaling.w1.ns_per_op"].Value / rec.Metrics[row+".ns_per_op"].Value
		rec.set(row+".speedup", speedup, "x")
		rec.set(row+".efficiency", speedup/float64(w), "fraction")
	}
	serveRows(t, &rec)

	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rec.Metrics))
}

// solveLoop warms a workspace with one solve and returns the benchmark
// loop of the named policy on the instance.
func solveLoop(t *testing.T, name string, in solve.Instance, opts solve.Options) func(b *testing.B) {
	t.Helper()
	s, err := solve.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Route(in, opts); err != nil {
		t.Fatal(err)
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Route(in, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// nocSimLoop returns the benchmark loop of the pooled NoC simulator
// replaying the E15 reference routing under cfg.
func nocSimLoop(t *testing.T, cfg noc.Config) func(b *testing.B) {
	t.Helper()
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 8).Uniform(15, 100, 1200)
	res := solveEval(t, heur.PR{}, solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
	if !res.Feasible {
		t.Fatalf("NoC bench setup: infeasible: %v", res.Err)
	}
	ws := noc.NewWorkspace()
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim, err := ws.Simulator(res.Routing, model, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sim.Run()
		}
	}
}

// serveRows loads an in-process routed server over loopback HTTP on the
// three guarded paths and records each path's load report.
func serveRows(t *testing.T, rec *benchRecord) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}}

	// Single-solve path: one fixed request, repeated.
	solveReq := serve.SolveRequest{Policy: "XYI"}
	for _, c := range solverBenchInstance().Comms[:20] {
		solveReq.Comms = append(solveReq.Comms, serve.SolveComm{
			ID: c.ID, Src: [2]int{c.Src.U, c.Src.V}, Dst: [2]int{c.Dst.U, c.Dst.V}, Rate: c.Rate,
		})
	}
	solveBody, err := json.Marshal(solveReq)
	if err != nil {
		t.Fatal(err)
	}
	solveRep := serve.RunLoad(serve.LoadConfig{Clients: 16, Requests: 512}, func(_, _ int) error {
		return postBytes(client, ts.URL+"/solve", solveBody)
	})
	// Cold sweeps: a distinct seed per request, every one a cache miss
	// that executes the full sweep.
	coldRep := serve.RunLoad(serve.LoadConfig{Clients: 2, Requests: 16}, func(_, req int) error {
		body, err := json.Marshal(serveBenchSpec(int64(1000 + req)))
		if err != nil {
			return err
		}
		return postBytes(client, ts.URL+"/sweep", body)
	})
	// Warm hits: prime one spec, then replay it from the cache.
	hitBody, err := json.Marshal(serveBenchSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := postBytes(client, ts.URL+"/sweep", hitBody); err != nil {
		t.Fatal(err)
	}
	hitRep := serve.RunLoad(serve.LoadConfig{Clients: 16, Requests: 512}, func(_, _ int) error {
		return postBytes(client, ts.URL+"/sweep", hitBody)
	})

	for name, rep := range map[string]serve.LoadReport{"solve": solveRep, "sweep_cold": coldRep, "sweep_hit": hitRep} {
		if rep.Errors > 0 {
			t.Fatalf("%s: %d/%d requests failed", name, rep.Errors, rep.Requests)
		}
		p := "serve." + name + "."
		rec.set(p+"clients", float64(rep.Clients), "count")
		rec.set(p+"requests", float64(rep.Requests), "count")
		rec.set(p+"errors", float64(rep.Errors), "count")
		rec.set(p+"elapsed_ns", rep.ElapsedNS, "ns")
		rec.set(p+"throughput_rps", rep.ThroughputRPS, "req/s")
		rec.set(p+"p50_ns", rep.P50NS, "ns")
		rec.set(p+"p99_ns", rep.P99NS, "ns")
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file of the checkout in
// path order, skipping hidden directories, as perfbench does: it names the
// code measured where no commit id does.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
