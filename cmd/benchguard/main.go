// Command benchguard compares freshly measured benchmark JSON against
// the committed baselines and fails when a tracked figure regressed
// beyond the allowed factor — the CI tripwire that keeps the refinement
// heuristics' compiled-objective speedups, IG's range-minimum bound and
// PR's degree-count path cleaning, the NoC simulator's
// arena-engine speedup (the NoCSimSF/NoCSimCT rows, one per switching
// mode, plus NoCSimEnergy for the per-component energy-accounting
// configuration), and the sweep scheduler's parallel efficiency from
// silently rotting.
//
// Usage:
//
//	benchguard -baseline BENCH_solvers.json -current fresh.json -policies IG,PR,XYI,SA,NoCSimSF,NoCSimCT,NoCSimEnergy -factor 2
//	benchguard -scaling fresh_scaling.json -scaling-baseline BENCH_scaling.json -eff-floor 0.5 -eff-factor 0.6
//	benchguard -serve fresh_serve.json -serve-baseline BENCH_serve.json -serve-factor 3 -hit-speedup 2
//
// At least one of -current, -scaling and -serve is required; passing
// several runs every requested check in one invocation.
//
// For the solver check, each policy's ns/op is first normalized by the
// ns/op of the -ref policy (XY) measured in the same file, so the guard
// compares how much slower a policy is than the trivial baseline routing
// on the same machine — absolute ns/op measured on different hardware (a
// committed developer-machine baseline vs. a CI runner) would trip on
// machine speed rather than code. Pass -ref "" to compare raw ns/op
// instead.
//
// The scaling check reads the parallel-efficiency figures emitted by
// TestEmitScalingBenchJSON (speedup over the serial sweep divided by
// min(workers, NumCPU)) and fails a multi-worker entry whose efficiency
// fell below -eff-floor, or below -eff-factor times the committed
// baseline's efficiency at the same worker count. Efficiency is already
// a machine-relative ratio, so no reference normalization applies; the
// baseline-relative factor is deliberately loose because efficiency on a
// shared CI runner is noisy — the guard exists to catch the scheduler
// serializing (efficiency collapsing toward 1/workers), not 10% jitter.
//
// The serve check reads the latency report emitted by
// TestEmitServeBenchJSON (BENCH_serve.json): per-path p50 latencies for
// the single-solve endpoint, a cold sweep execution, and a warm cache
// hit. Each p50 is first divided by the file's own ref_solve_ns (a warmed
// XY solve measured in the same run — the machine-speed proxy), so the
// committed baseline compares against a CI runner by relative cost; a
// path fails when its normalized p50 exceeds -serve-factor times the
// baseline's. The -hit-speedup floor is machine-independent within one
// file: the current run's cold p50 over its hit p50 must stay above the
// floor, the latency guardrail proving a warm hit actually bypasses the
// sweep engine.
//
// Policies, worker counts, or serve paths present in the tracked set but
// missing from either file are an error: a guard that silently skips its
// subjects guards nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// row mirrors the per-policy entry of BENCH_solvers.json.
type row struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// scalingFile mirrors BENCH_scaling.json.
type scalingFile struct {
	NumCPU  int            `json:"num_cpu"`
	Trials  int            `json:"trials"`
	Entries []scalingEntry `json:"entries"`
}

type scalingEntry struct {
	Workers    int     `json:"workers"`
	NsPerOp    float64 `json:"ns_per_op"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// serveFile mirrors BENCH_serve.json; loadReport the per-path figures.
type serveFile struct {
	RefSolveNS float64    `json:"ref_solve_ns"`
	Solve      loadReport `json:"solve"`
	SweepCold  loadReport `json:"sweep_cold"`
	SweepHit   loadReport `json:"sweep_hit"`
}

type loadReport struct {
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50NS         float64 `json:"p50_ns"`
	P99NS         float64 `json:"p99_ns"`
}

func main() {
	var (
		baseline = flag.String("baseline", "BENCH_solvers.json", "committed solver baseline JSON")
		current  = flag.String("current", "", "freshly measured solver JSON to check")
		policies = flag.String("policies", "IG,PR,XYI,SA,2MP,4MP,OPT,NoCSimSF,NoCSimCT,NoCSimEnergy", "comma-separated policies to guard")
		factor   = flag.Float64("factor", 2, "maximum allowed solver slowdown current/baseline")
		ref      = flag.String("ref", "XY", "reference policy that normalizes machine speed (empty = compare raw ns/op)")

		scaling     = flag.String("scaling", "", "freshly measured scaling JSON to check")
		scalingBase = flag.String("scaling-baseline", "BENCH_scaling.json", "committed scaling baseline JSON")
		effFloor    = flag.Float64("eff-floor", 0.5, "minimum parallel efficiency for multi-worker entries")
		effFactor   = flag.Float64("eff-factor", 0.6, "minimum fraction of the baseline's efficiency at the same worker count")

		serveCur    = flag.String("serve", "", "freshly measured serve latency JSON to check")
		serveBase   = flag.String("serve-baseline", "BENCH_serve.json", "committed serve latency baseline JSON")
		serveFactor = flag.Float64("serve-factor", 3, "maximum allowed normalized-p50 slowdown per serve path")
		hitSpeedup  = flag.Float64("hit-speedup", 2, "minimum cold-sweep-p50 over cache-hit-p50 in the current serve JSON")
	)
	flag.Parse()
	if *current == "" && *scaling == "" && *serveCur == "" {
		fmt.Fprintln(os.Stderr, "benchguard: at least one of -current, -scaling and -serve is required")
		os.Exit(2)
	}
	failed := false
	if *current != "" {
		failed = checkSolvers(*baseline, *current, *policies, *ref, *factor) || failed
	}
	if *scaling != "" {
		failed = checkScaling(*scalingBase, *scaling, *effFloor, *effFactor) || failed
	}
	if *serveCur != "" {
		failed = checkServe(*serveBase, *serveCur, *serveFactor, *hitSpeedup) || failed
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchguard: regression detected")
		os.Exit(1)
	}
}

// checkSolvers runs the per-policy ns/op comparison and reports whether
// any tracked policy regressed beyond factor.
func checkSolvers(baseline, current, policies, ref string, factor float64) bool {
	base, err := load(baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := load(current)
	if err != nil {
		fatal(err)
	}
	baseRef, curRef := 1.0, 1.0
	unit := "ns/op"
	if ref != "" {
		baseRef = nsOf(base, ref, baseline)
		curRef = nsOf(cur, ref, current)
		unit = "x " + ref
	}
	failed := false
	for _, p := range strings.Split(policies, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		b := nsOf(base, p, baseline) / baseRef
		c := nsOf(cur, p, current) / curRef
		ratio := c / b
		status := "ok"
		if ratio > factor {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-6s baseline %14.1f %-7s current %14.1f %-7s ratio %5.2f  %s\n",
			p, b, unit, c, unit, ratio, status)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: solver regression beyond %gx against %s\n", factor, baseline)
	}
	return failed
}

// checkScaling compares the current run's parallel efficiency per worker
// count against the absolute floor and the committed baseline, and
// reports whether any multi-worker entry regressed. Single-worker
// entries are the serial reference (efficiency 1 by construction) and
// are only printed.
func checkScaling(baselinePath, currentPath string, floor, factor float64) bool {
	base, err := loadScaling(baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadScaling(currentPath)
	if err != nil {
		fatal(err)
	}
	baseEff := make(map[int]float64, len(base.Entries))
	for _, e := range base.Entries {
		baseEff[e.Workers] = e.Efficiency
	}
	failed := false
	for _, e := range cur.Entries {
		if e.Efficiency <= 0 {
			fmt.Fprintf(os.Stderr, "benchguard: efficiency for workers=%d in %s is %g\n",
				e.Workers, currentPath, e.Efficiency)
			os.Exit(2)
		}
		if e.Workers <= 1 {
			fmt.Printf("workers=%-3d efficiency %5.2f  (serial reference)\n", e.Workers, e.Efficiency)
			continue
		}
		status := "ok"
		limit := floor
		if b, ok := baseEff[e.Workers]; ok && b*factor > limit {
			limit = b * factor
		}
		if e.Efficiency < limit {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("workers=%-3d efficiency %5.2f  floor %5.2f  %s\n",
			e.Workers, e.Efficiency, limit, status)
	}
	if len(cur.Entries) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s has no entries\n", currentPath)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: parallel efficiency below its floor (floor %g, %gx of %s)\n",
			floor, factor, baselinePath)
	}
	return failed
}

// checkServe compares the current serve run's per-path p50 latencies,
// normalized by each file's own ref_solve_ns, against the committed
// baseline, and enforces the cache-hit speedup floor within the current
// file. Reports whether anything regressed.
func checkServe(baselinePath, currentPath string, factor, hitFloor float64) bool {
	base, err := loadServe(baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadServe(currentPath)
	if err != nil {
		fatal(err)
	}
	failed := false
	paths := []struct {
		name      string
		base, cur loadReport
	}{
		{"solve", base.Solve, cur.Solve},
		{"sweep_cold", base.SweepCold, cur.SweepCold},
		{"sweep_hit", base.SweepHit, cur.SweepHit},
	}
	for _, p := range paths {
		for _, f := range []struct {
			path string
			rep  loadReport
		}{{baselinePath, p.base}, {currentPath, p.cur}} {
			if f.rep.P50NS <= 0 {
				fmt.Fprintf(os.Stderr, "benchguard: p50 for %q in %s is %g\n", p.name, f.path, f.rep.P50NS)
				os.Exit(2)
			}
			if f.rep.Errors > 0 {
				fmt.Fprintf(os.Stderr, "benchguard: %s measured %q with %d errors\n", f.path, p.name, f.rep.Errors)
				os.Exit(2)
			}
		}
		b := p.base.P50NS / base.RefSolveNS
		c := p.cur.P50NS / cur.RefSolveNS
		ratio := c / b
		status := "ok"
		if ratio > factor {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-10s baseline p50 %10.1f x ref  current p50 %10.1f x ref  ratio %5.2f  %s\n",
			p.name, b, c, ratio, status)
	}
	speedup := cur.SweepCold.P50NS / cur.SweepHit.P50NS
	status := "ok"
	if speedup < hitFloor {
		status = "REGRESSED"
		failed = true
	}
	fmt.Printf("cache-hit speedup %5.1fx (cold p50 / hit p50)  floor %gx  %s\n", speedup, hitFloor, status)
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: serve latency regression (factor %g, hit floor %gx) against %s\n",
			factor, hitFloor, baselinePath)
	}
	return failed
}

// loadServe reads and sanity-checks a serve latency file.
func loadServe(path string) (serveFile, error) {
	var f serveFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.RefSolveNS <= 0 {
		return f, fmt.Errorf("%s: ref_solve_ns is %g", path, f.RefSolveNS)
	}
	return f, nil
}

// nsOf returns the policy's ns/op from the file's rows, exiting loudly
// when the policy is missing or non-positive.
func nsOf(rows map[string]row, policy, path string) float64 {
	r, ok := rows[policy]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchguard: policy %q missing from %s\n", policy, path)
		os.Exit(2)
	}
	if r.NsPerOp <= 0 {
		fmt.Fprintf(os.Stderr, "benchguard: ns/op for %q in %s is %g\n", policy, path, r.NsPerOp)
		os.Exit(2)
	}
	return r.NsPerOp
}

func load(path string) (map[string]row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows map[string]row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

func loadScaling(path string) (scalingFile, error) {
	var f scalingFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(2)
}
