// Streaming-sweep benchmark harness: the per-trial allocation guard of
// the sink/streaming layer (sinks may allocate per point, never per
// trial) and the worker-pool scaling benchmark. TestEmitBenchJSON
// records both sweeps for cmd/benchguard.
package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// benchSweepSpec is one congested point (the Figure 7(a) midpoint shape)
// streamed to both incremental sinks.
func benchSweepSpec(trials int) scenario.Spec {
	return scenario.Spec{
		ID: "bench", Title: "bench",
		Params: scenario.Params{WMin: 100, WMax: 1500},
		Axis:   scenario.AxisN, Points: []float64{70},
		Trials: trials, Seed: 1,
		Policies: []string{"XY"},
	}
}

func runBenchSweep(b testing.TB, trials int) {
	sp := benchSweepSpec(trials)
	err := experiments.Sweep(sp, experiments.SweepOptions{},
		experiments.NewCSVSink(io.Discard, io.Discard),
		experiments.NewJSONLSink(io.Discard))
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepStreaming measures a streamed sweep point end to end —
// engine, reduction, CSV and JSONL sinks — and guards the per-trial
// allocation budget: the streaming layer must inherit the pooled engine's
// discipline, with sink work amortized per point. A sink (or reduction)
// that allocates per trial blows straight through the same bound the
// panel runner enforces.
func BenchmarkSweepStreaming(b *testing.B) {
	const trials = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runBenchSweep(b, trials)
	}
	b.StopTimer()
	// AllocsPerRun pins GOMAXPROCS to 1: exactly the serial per-trial hot
	// path plus the per-point sink emissions, amortized over the trials.
	perTrial := testing.AllocsPerRun(3, func() { runBenchSweep(b, trials) }) / trials
	b.ReportMetric(perTrial, "allocs/trial")
	if perTrial > maxAllocsPerTrial {
		b.Fatalf("per-trial allocations %.0f exceed the guard %d — the streaming layer is allocating on the per-trial path",
			perTrial, maxAllocsPerTrial)
	}
}

// scalingSpec is the mixed fast/slow-point sweep the scaling numbers are
// measured on: big-n congested points interleaved with tiny ones, so a
// per-point barrier would idle most of the fleet on every slow point —
// exactly the shape the shared task cursor exists for.
func scalingSpec(trials int) scenario.Spec {
	return scenario.Spec{
		ID: "scaling", Title: "scaling",
		Params: scenario.Params{WMin: 100, WMax: 1500},
		Axis:   scenario.AxisN, Points: []float64{10, 90, 15, 70, 20, 80},
		Trials: trials, Seed: 7,
		Policies: []string{"XY", "XYI"},
	}
}

func runScalingSweep(b testing.TB, workers, trials int) {
	sp := scalingSpec(trials)
	err := experiments.Sweep(sp, experiments.SweepOptions{Workers: workers},
		experiments.NewCSVSink(io.Discard, io.Discard))
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepScaling runs the mixed-point sweep at each count of
// sweepScalingWorkers (one sub-benchmark each), the raw numbers behind
// the bench record's speedup and parallel-efficiency rows.
func BenchmarkSweepScaling(b *testing.B) {
	const trials = 16
	for _, workers := range sweepScalingWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runScalingSweep(b, workers, trials)
			}
		})
	}
}
