// Command perfbench is the repository's benchmark. It drives the routing
// stack from outside, the way its users do — HTTP /solve and /sweep
// against an in-process routed server over loopback, and back-to-back
// figure sweeps through the experiments engine — checks every answer,
// and prints one JSON result line. See README.md for the workloads, the
// metrics and how to run it.
//
// Usage:
//
//	bash perfbench/run.sh --workload solve_light --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// options are one run's command-line settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	conns   int // client connections, sweep workers and solve shards
}

// duration is the measured window of a run.
func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	run  func(o options) (*report, error)
}

var workloads = []workload{
	{"solve_light", func(o options) (*report, error) { return runSolve(solveLight, o) }},
	{"solve_replay", func(o options) (*report, error) { return runSolve(solveReplay, o) }},
	{"sweep_figure", runSweepFigure},
	{"sweep_cached", runSweepCached},
}

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct{ name, unit, better string }

// endToEnd are the guarded metrics of an untraced run (--trace 0), on
// every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"max_rate_rps", "req/s", "higher"},
	{"trials_per_s", "trials/s", "higher"},
	{"ok_ratio", "fraction", "higher"},
	{"peak_heap_mb", "MiB", "lower"},
}

// unguarded are end-to-end metrics an untraced run prints and stores but
// leaves out of its result line, which may hold only metrics a regression
// bound can guard: on a shared 2-CPU host p99_ms moves by more than any
// bound from run to run with the same inputs, and the other two are 0 on
// some workloads. A traced run reports p99_ms among its per-layer rows.
var unguarded = []metricDef{
	{"p99_ms", "ms", "lower"},
	{"failed_ratio", "fraction", "lower"},
	{"sim_packets_per_s", "packets/s", "higher"},
}

// policies are every routing policy some workload sends; each has its own
// solve and feasibility rows.
var policies = []string{"XY", "SG", "IG", "TB", "XYI", "PR", "TABLE", "2MP"}

// perLayer are the metrics of a traced run (--trace 1). A layer a
// workload does not reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"p99_ms", "ms", "lower"},
		{"serve.loopback_us", "us", "lower"},
		{"serve.decode_us", "us", "lower"},
		{"serve.encode_us", "us", "lower"},
		{"serve.rim_us", "us", "lower"},
		{"serve.queue_handoff_us", "us", "lower"},
		{"serve.rejects", "count", "lower"},
		{"serve.timeouts", "count", "lower"},
		{"serve.canceled", "count", "lower"},
		{"serve.cache.hit_ratio", "fraction", "higher"},
		{"serve.cache.attach_ratio", "fraction", "higher"},
		{"serve.cache.sweeps_run", "count", "lower"},
		{"serve.cache.evictions", "count", "lower"},
		{"serve.cache.hit_p50_ms", "ms", "lower"},
		{"serve.cache.attach_p50_ms", "ms", "lower"},
		{"serve.cache.miss_p50_ms", "ms", "lower"},
		{"solve.validate_us", "us", "lower"},
	}
	for _, p := range policies {
		defs = append(defs, metricDef{"solve.route_us." + p, "us", "lower"})
	}
	for _, p := range policies {
		defs = append(defs, metricDef{"solve.allocs." + p, "count", "lower"})
	}
	defs = append(defs, metricDef{"route.evaluate_us", "us", "lower"})
	for _, p := range policies {
		defs = append(defs, metricDef{"route.feasible_ratio." + p, "fraction", "higher"})
	}
	return append(defs,
		metricDef{"scenario.draw_us", "us", "lower"},
		metricDef{"experiments.sink_us", "us", "lower"},
		metricDef{"experiments.busy_ratio", "fraction", "higher"},
		metricDef{"experiments.unattributed_ratio", "fraction", "lower"},
		metricDef{"noc.setup_us", "us", "lower"},
		metricDef{"noc.run_us", "us", "lower"},
		metricDef{"noc.host_ns_per_packet", "ns", "lower"},
		metricDef{"noc.delivered_ratio", "fraction", "higher"},
		metricDef{"noc.sim_packets_per_s", "packets/s", "higher"},
		metricDef{"loadgen.lag_p99_ms", "ms", "lower"},
		metricDef{"loadgen.sent", "count", "higher"},
		metricDef{"trace.overhead_ratio", "fraction", "lower"},
		metricDef{"trace.unattributed_ratio", "fraction", "lower"},
	)
}()

// report is what one workload run measured and checked.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	// detail is written to the result file only: rung tables, sample
	// counts, the percentile p99_ms stands for, and the like.
	detail map[string]any
	spans  []Span
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), detail: make(map[string]any)}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// okRatio is the share of attempts that succeeded and checked out.
func okRatio(rep *report) float64 {
	if rep.attempted == 0 {
		return 0
	}
	return float64(rep.attempted-rep.failed) / float64(rep.attempted)
}

// setLayers fills every per-layer metric the workload did not measure,
// and every ratio over nothing, with 0, so every traced run reports the
// full set.
func (r *report) setLayers(m map[string]float64) {
	for _, d := range perLayer {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.metrics[d.name] = v
	}
}

// environment records what the numbers were measured on.
type environment struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Workers      int    `json:"workers"`
	// CPULimited marks a run with more workers than CPUs: its figures
	// measure scheduling, not parallel speed, and are not to be guarded.
	CPULimited bool `json:"cpu_limited"`
}

func captureEnvironment(workers int) environment {
	return environment{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit("."),
		SourceSHA256: sourceDigest("."),
		Workers:      workers,
		CPULimited:   workers > runtime.NumCPU(),
	}
}

// gitCommit reads the checked-out commit from .git without running git;
// "unknown" outside a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root, in path
// order, skipping hidden directories (.git, build output): it identifies
// the code measured where no commit id is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
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

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultsDir holds the per-run result files and span dumps.
const resultsDir = ".bench_out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run, or \"all\"")
	seed := fl.Int64("seed", 1, "seed every input is generated from")
	seconds := fl.Float64("seconds", 10, "measured seconds per run")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, conns: runtime.NumCPU()}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		code := 0
		for _, w := range workloads {
			if c := runOne(w, o, stdout, stderr); c != 0 {
				code = c
			}
		}
		return code
	}
	for _, w := range workloads {
		if w.name == *name {
			return runOne(w, o, stdout, stderr)
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(names, ", "))
	return 2
}

// runOne runs one workload, writes its result file and prints its
// summary and result line.
func runOne(w workload, o options, stdout, stderr io.Writer) int {
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", w.name, d.name)
			return 1
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if !o.trace {
		rep.metrics["failed_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))
		defs = append(defs[:len(defs):len(defs)], unguarded...)
	}
	if err := writeResult(w.name, o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printSummary(stderr, w.name, o, rep, defs)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// writeResult stores the run's environment, every metric, the detail
// tables and (traced runs) every span under resultsDir.
func writeResult(name string, o options, rep *report) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d", name, o.seed, btoi(o.trace)))
	doc := map[string]any{
		"workload":    name,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"environment": captureEnvironment(o.conns),
		"attempted":   rep.attempted,
		"failed":      rep.failed,
		"problems":    rep.problems,
		"metrics":     rep.metrics,
		"detail":      rep.detail,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if rep.spans == nil {
		return nil
	}
	return writeSpans(base+".spans.jsonl", rep.spans)
}

func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printSummary writes the human-readable table of one run to w.
func printSummary(w io.Writer, name string, o options, rep *report, defs []metricDef) {
	fmt.Fprintf(w, "== %s  seed %d  %gs  trace %d  attempted %d  failed %d\n",
		name, o.seed, o.seconds, btoi(o.trace), rep.attempted, rep.failed)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "   FAIL %s\n", p)
	}
	for _, d := range defs {
		note := ""
		if !o.trace && slices.Contains(unguarded, d) {
			note = "  (reported, not guarded)"
		}
		fmt.Fprintf(w, "   %-34s %14.4f %s%s\n", d.name, rep.metrics[d.name], d.unit, note)
	}
	keys := make([]string, 0, len(rep.detail))
	for k := range rep.detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		data, _ := json.Marshal(rep.detail[k])
		fmt.Fprintf(w, "   %-34s %s\n", k, data)
	}
}
