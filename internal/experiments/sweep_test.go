package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// smokeSpec is a tiny sweep used across the streaming tests.
func smokeSpec() scenario.Spec {
	return scenario.Spec{
		ID: "smoke", Title: "smoke sweep",
		Params: scenario.Params{WMin: 100, WMax: 1200},
		Axis:   scenario.AxisN, Points: []float64{5, 15, 25, 40},
		Trials: 4, Seed: 11,
		Policies: []string{"XY", "PR", "BEST"},
	}
}

// recordSink captures the stream for inspection.
type recordSink struct {
	meta   SweepMeta
	points []PointResult
	ended  bool
}

func (s *recordSink) Begin(meta SweepMeta) error { s.meta = meta; return nil }
func (s *recordSink) Point(pr PointResult) error {
	cp := pr
	cp.NormPowerInv = append([]float64(nil), pr.NormPowerInv...)
	cp.FailureRatio = append([]float64(nil), pr.FailureRatio...)
	s.points = append(s.points, cp)
	return nil
}
func (s *recordSink) End() error { s.ended = true; return nil }

// Sinks receive every point in order, with the policy order of the meta.
func TestSweepStreamsPointsInOrder(t *testing.T) {
	rs := &recordSink{}
	if err := Sweep(smokeSpec(), SweepOptions{}, rs); err != nil {
		t.Fatal(err)
	}
	if !rs.ended {
		t.Error("End was not called")
	}
	if got, want := rs.meta.Policies, []string{"XY", "PR", "BEST"}; !reflect.DeepEqual(got, want) {
		t.Errorf("meta policies %v, want %v", got, want)
	}
	if len(rs.points) != 4 {
		t.Fatalf("streamed %d points, want 4", len(rs.points))
	}
	for i, pr := range rs.points {
		if pr.Index != i {
			t.Errorf("point %d has index %d", i, pr.Index)
		}
		if pr.X != smokeSpec().Points[i] {
			t.Errorf("point %d at x=%g, want %g", i, pr.X, smokeSpec().Points[i])
		}
		if len(pr.NormPowerInv) != 3 || len(pr.FailureRatio) != 3 {
			t.Errorf("point %d has %d/%d values", i, len(pr.NormPowerInv), len(pr.FailureRatio))
		}
	}
}

// The same spec and seed stream bit-identical CSV across runs, and a
// resume from any mid-sweep checkpoint reproduces exactly the remaining
// output — the append of the two runs equals the uninterrupted run.
func TestSweepResumeBitIdentical(t *testing.T) {
	sp := smokeSpec()
	full := runCSV(t, sp, 0)
	again := runCSV(t, sp, 0)
	if full != again {
		t.Fatal("same spec and seed produced different streamed CSV")
	}
	for checkpoint := 1; checkpoint < len(sp.Points); checkpoint++ {
		head := runCSVStopAfter(t, sp, checkpoint)
		tail := runCSV(t, sp, checkpoint)
		if head+tail != full {
			t.Errorf("resume at point %d diverges:\n--- head+tail ---\n%s\n--- full ---\n%s",
				checkpoint, head+tail, full)
		}
	}
}

// runCSV streams the spec's power CSV from the given start point.
func runCSV(t *testing.T, sp scenario.Spec, start int) string {
	t.Helper()
	var pow, fail bytes.Buffer
	if err := Sweep(sp, SweepOptions{Start: start}, NewCSVSink(&pow, &fail)); err != nil {
		t.Fatal(err)
	}
	return pow.String()
}

// stopAfter aborts the stream after n points, simulating an interrupted
// sweep with n checkpointed rows.
type stopAfter struct {
	n    int
	errv error
}

func (s *stopAfter) Begin(SweepMeta) error { return nil }
func (s *stopAfter) Point(pr PointResult) error {
	if pr.Index+1 >= s.n {
		return s.errv
	}
	return nil
}
func (s *stopAfter) End() error { return nil }

// runCSVStopAfter streams the spec until n points completed, then kills
// the sweep — the CSV holds exactly n data rows, like a real interrupt.
func runCSVStopAfter(t *testing.T, sp scenario.Spec, n int) string {
	t.Helper()
	var pow, fail bytes.Buffer
	stop := &stopAfter{n: n, errv: errStop}
	err := Sweep(sp, SweepOptions{}, NewCSVSink(&pow, &fail), stop)
	if err != errStop {
		t.Fatalf("sweep did not stop: %v", err)
	}
	return pow.String()
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

// Spec JSON round-trip: encode → decode → identical sweep results.
func TestSpecRoundTripIdenticalResults(t *testing.T) {
	sp := smokeSpec()
	var buf bytes.Buffer
	if err := sp.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := scenario.DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := runCSV(t, sp, 0)
	b := runCSV(t, decoded, 0)
	if a != b {
		t.Errorf("decoded spec sweeps differently:\n--- original ---\n%s\n--- decoded ---\n%s", a, b)
	}
}

// The JSONL sink streams one meta record and one record per point, and
// suppresses the meta on resume.
func TestJSONLSink(t *testing.T) {
	sp := smokeSpec()
	var buf bytes.Buffer
	if err := Sweep(sp, SweepOptions{}, NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(sp.Points) {
		t.Fatalf("%d JSONL lines, want %d", len(lines), 1+len(sp.Points))
	}
	var meta struct {
		Type     string   `json:"type"`
		Policies []string `json:"policies"`
		Trials   int      `json:"trials"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Type != "meta" || meta.Trials != sp.Trials || len(meta.Policies) != 3 {
		t.Errorf("meta record %+v", meta)
	}
	for i, line := range lines[1:] {
		var pt struct {
			Type  string  `json:"type"`
			Index int     `json:"index"`
			X     float64 `json:"x"`
		}
		if err := json.Unmarshal([]byte(line), &pt); err != nil {
			t.Fatal(err)
		}
		if pt.Type != "point" || pt.Index != i {
			t.Errorf("line %d: %+v", i+1, pt)
		}
	}
	var resumed bytes.Buffer
	if err := Sweep(sp, SweepOptions{Start: 3}, NewJSONLSink(&resumed)); err != nil {
		t.Fatal(err)
	}
	rl := strings.Split(strings.TrimSpace(resumed.String()), "\n")
	if len(rl) != 1 {
		t.Fatalf("resumed JSONL has %d lines, want 1 (no meta)", len(rl))
	}
	if rl[0] != lines[len(lines)-1] {
		t.Errorf("resumed point differs from the full run's:\n%s\n%s", rl[0], lines[len(lines)-1])
	}
}

// Sweeps over non-uniform sources and non-default meshes run end to end
// through the same pipeline, honoring any policy list.
func TestSweepGenericSources(t *testing.T) {
	for _, tc := range []struct {
		source, mesh string
		params       scenario.Params
	}{
		{"tornado", "16x16", scenario.Params{Rate: 400}},
		{"bitrev", "8x8", scenario.Params{WMin: 100, WMax: 600}},
		{"hotspot", "8x8", scenario.Params{N: 6, Rate: 300}},
		{"transpose", "16x16", scenario.Params{Rate: 200}},
	} {
		sp := scenario.Spec{
			ID: tc.source, Source: tc.source, Mesh: tc.mesh, Params: tc.params,
			Trials: 2, Seed: 9, Policies: []string{"XY", "PR"},
		}
		rs := &recordSink{}
		if err := Sweep(sp, SweepOptions{}, rs); err != nil {
			t.Errorf("%s on %s: %v", tc.source, tc.mesh, err)
			continue
		}
		if len(rs.points) != 1 || len(rs.points[0].NormPowerInv) != 2 {
			t.Errorf("%s on %s: unexpected stream shape %+v", tc.source, tc.mesh, rs.points)
		}
	}
}

// A spec whose params cannot bind (bit pattern on a 6x6 mesh) fails
// loudly before any point is evaluated, naming the source and mesh.
func TestSweepBindFailsLoudly(t *testing.T) {
	sp := scenario.Spec{
		ID: "bad", Source: "bitrev", Mesh: "6x6",
		Params: scenario.Params{Rate: 300}, Trials: 1,
	}
	rs := &recordSink{}
	err := Sweep(sp, SweepOptions{}, rs)
	if err == nil {
		t.Fatal("bind error not surfaced")
	}
	for _, want := range []string{"bitrev", "6x6", "power-of-two"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if len(rs.points) != 0 {
		t.Error("points were streamed despite the bind error")
	}
}

// RunSummary honors a policy list and re-normalizes against the
// first policy when XY is absent.
func TestSummaryWithPolicies(t *testing.T) {
	s, err := RunSummary(1, 1, []string{"SG", "PR"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Names, []string{"SG", "PR", "BEST"}; !reflect.DeepEqual(got, want) {
		t.Errorf("names %v, want %v", got, want)
	}
	if s.Ref != "SG" {
		t.Errorf("ref %q, want SG", s.Ref)
	}
	if g := s.InvPowerGainVsXY["SG"]; g != 1 {
		t.Errorf("self-gain %g, want 1", g)
	}
	// A literal BEST entry is absorbed into the derived row, so any list
	// the figure sweeps accept works here uniformly.
	s, err = RunSummary(1, 1, []string{"XY", "PR", "BEST"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Names, []string{"XY", "PR", "BEST"}; !reflect.DeepEqual(got, want) {
		t.Errorf("names with literal BEST: %v, want %v", got, want)
	}
	if _, err := RunSummary(1, 1, []string{"nope"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// RunPatterns honors a policy list.
func TestPatternsWithPolicies(t *testing.T) {
	rows, err := RunPatterns(500, []string{"TB", "PR"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if got, want := rows[0].Names, []string{"TB", "PR", "BEST"}; !reflect.DeepEqual(got, want) {
		t.Errorf("names %v, want %v", got, want)
	}
	if _, ok := rows[0].Cells["BEST"]; !ok {
		t.Error("BEST cell missing")
	}
	// A bare BEST list falls back to deriving it over the paper's six
	// constructive heuristics — the BEST solver's own semantics.
	rows, err = RunPatterns(500, []string{"BEST"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows[0].Names, HeuristicNames; !reflect.DeepEqual(got, want) {
		t.Errorf("bare-BEST names %v, want %v", got, want)
	}
}

// Check is the first step of every sweep: for each spec the engine
// refuses before binding a source, Check returns the error Sweep returns,
// and Sweep streams nothing.
func TestCheckMatchesSweepErrors(t *testing.T) {
	for name, edit := range map[string]func(sp *scenario.Spec){
		"unknown policy":            func(sp *scenario.Spec) { sp.Policies = []string{"XY", "NOPE"} },
		"bad mesh":                  func(sp *scenario.Spec) { sp.Mesh = "8by8" },
		"mesh plus topology":        func(sp *scenario.Spec) { sp.Mesh, sp.Topology = "8x8", "torus:4x4" },
		"mesh-spelled topology":     func(sp *scenario.Spec) { sp.Topology = "mesh:8x8" },
		"mesh-only policy on torus": func(sp *scenario.Spec) { sp.Topology = "torus:4x4" },
		"unknown source":            func(sp *scenario.Spec) { sp.Source = "nope" },
	} {
		sp := smokeSpec()
		edit(&sp)
		checkErr := Check(sp)
		if checkErr == nil {
			t.Errorf("%s: Check accepted the spec", name)
			continue
		}
		rs := &recordSink{}
		sweepErr := Sweep(sp, SweepOptions{}, rs)
		if sweepErr == nil || sweepErr.Error() != checkErr.Error() {
			t.Errorf("%s: Sweep error %v, Check error %v", name, sweepErr, checkErr)
		}
		if rs.meta.Policies != nil || len(rs.points) != 0 {
			t.Errorf("%s: Sweep streamed despite the error", name)
		}
	}
}
