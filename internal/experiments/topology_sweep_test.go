package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// topologySpecs returns tiny sweeps on each non-mesh family, sized so
// the whole matrix stays fast under -race.
func topologySpecs() []scenario.Spec {
	return []scenario.Spec{
		{
			ID: "t4", Title: "torus sweep",
			Topology: "torus:4x4", Source: "uniform",
			Params: scenario.Params{WMin: 100, WMax: 900},
			Axis:   scenario.AxisN, Points: []float64{10, 4, 7},
			Trials: 3, Seed: 5,
			Policies: []string{"TABLE"},
		},
		{
			ID: "c16", Title: "circulant sweep",
			Topology: "circulant:16:1,4", Source: "uniform",
			Params: scenario.Params{WMin: 100, WMax: 700},
			Axis:   scenario.AxisN, Points: []float64{8, 3, 5},
			Trials: 3, Seed: 9,
			Policies: []string{"TABLE"},
		},
	}
}

// Non-mesh sweeps inherit the sweep engine's determinism
// contract: every worker count streams byte-identical CSV and JSONL.
func TestTopologySweepWorkersByteIdentical(t *testing.T) {
	for _, sp := range topologySpecs() {
		refPow, refFail, refJSONL := sweepOutput(t, sp, SweepOptions{Workers: 1})
		if !strings.Contains(refPow, "\n") || len(refPow) == 0 {
			t.Fatalf("%s: empty power CSV from serial sweep", sp.ID)
		}
		for _, workers := range []int{2, 4} {
			pow, fail, jsonl := sweepOutput(t, sp, SweepOptions{Workers: workers})
			if pow != refPow || fail != refFail || jsonl != refJSONL {
				t.Errorf("%s: workers=%d streams different output than workers=1", sp.ID, workers)
			}
		}
	}
}

// Resume on a non-mesh sweep: a head run truncated after k points plus a
// tail resumed with Start=k equals the uninterrupted run byte for byte —
// the invariant the CI topology smoke step replays through
// cmd/experiments.
func TestTopologySweepResumeBitIdentical(t *testing.T) {
	for _, sp := range topologySpecs() {
		fullPow, _, _ := sweepOutput(t, sp, SweepOptions{Workers: 1})
		for checkpoint := 1; checkpoint < len(sp.Points); checkpoint++ {
			headPow := runCSVStopAfterWorkers(t, sp, checkpoint, 2)
			var tb, fb bytes.Buffer
			if err := Sweep(sp, SweepOptions{Start: checkpoint, Workers: 2}, NewCSVSink(&tb, &fb)); err != nil {
				t.Fatal(err)
			}
			if headPow+tb.String() != fullPow {
				t.Errorf("%s: resume at point %d diverges from the uninterrupted sweep", sp.ID, checkpoint)
			}
		}
	}
}

// A topology sweep with a mesh-only policy must fail fast, before any
// trial runs, and the error must name the topology-capable policies.
func TestTopologySweepRejectsMeshOnlyPolicies(t *testing.T) {
	sp := topologySpecs()[0]
	sp.Policies = []string{"XY", "PR"}
	err := Sweep(sp, SweepOptions{}, NewCSVSink(&bytes.Buffer{}, &bytes.Buffer{}))
	if err == nil {
		t.Fatal("sweep accepted mesh-only policies on a torus")
	}
	if !strings.Contains(err.Error(), "TABLE") {
		t.Errorf("error does not name the topology-capable policies: %v", err)
	}
}
