package experiments

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/scenario"
)

// scramble delays each trial by a duration derived from its identity,
// on the worker that runs it, scrambling completion order across
// workers without any randomness the race detector or a rerun could
// disagree about.
func scramble(point, trial int) {
	time.Sleep(time.Duration((point*31+trial*7)%5) * time.Millisecond)
}

// unevenSpec is a multi-point sweep with deliberately unequal point
// costs: big-n XYI points next to tiny ones, so chunks of slow points
// overlap chunks of fast ones in the worker pool.
func unevenSpec() scenario.Spec {
	return scenario.Spec{
		ID: "uneven", Title: "uneven sweep",
		Params: scenario.Params{WMin: 100, WMax: 1200},
		Axis:   scenario.AxisN, Points: []float64{40, 5, 25, 10, 35},
		Trials: 6, Seed: 17,
		Policies: []string{"XY", "XYI", "BEST"},
	}
}

// sweepOutput streams one spec's CSV + JSONL under the given options.
func sweepOutput(t *testing.T, sp scenario.Spec, opt SweepOptions, extra ...Sink) (pow, fail, jsonl string) {
	t.Helper()
	var pb, fb, jb bytes.Buffer
	sinks := append([]Sink{NewCSVSink(&pb, &fb), NewJSONLSink(&jb)}, extra...)
	if err := Sweep(sp, opt, sinks...); err != nil {
		t.Fatal(err)
	}
	return pb.String(), fb.String(), jb.String()
}

// The tentpole determinism pin: every worker count — the serial
// reference, a couple of odd pool sizes, heavy oversubscription — must
// stream byte-identical CSV and JSONL, with TrialStart scrambling
// completion order so in-order delivery is the merge stage's doing, not
// the pool's accident.
func TestSweepWorkersByteIdentical(t *testing.T) {
	sp := unevenSpec()
	refPow, refFail, refJSONL := sweepOutput(t, sp, SweepOptions{Workers: 1, TrialStart: scramble})
	for _, workers := range []int{2, 3, 8} {
		pow, fail, jsonl := sweepOutput(t, sp, SweepOptions{Workers: workers, TrialStart: scramble})
		if pow != refPow || fail != refFail || jsonl != refJSONL {
			t.Errorf("workers=%d streams different output than workers=1\n--- power (w=%d) ---\n%s--- power (w=1) ---\n%s",
				workers, workers, pow, refPow)
		}
	}
}

// Resume keeps its contract on the worker pool: a head run at one
// worker count plus a tail resumed at another equals the uninterrupted
// serial run byte for byte.
func TestSweepResumeAcrossWorkerCounts(t *testing.T) {
	sp := unevenSpec()
	fullPow, _, _ := sweepOutput(t, sp, SweepOptions{Workers: 1})
	for checkpoint := 1; checkpoint < len(sp.Points); checkpoint++ {
		headPow := runCSVStopAfterWorkers(t, sp, checkpoint, 4)
		var tb, fb bytes.Buffer
		if err := Sweep(sp, SweepOptions{Start: checkpoint, Workers: 3, TrialStart: scramble}, NewCSVSink(&tb, &fb)); err != nil {
			t.Fatal(err)
		}
		if headPow+tb.String() != fullPow {
			t.Errorf("resume at %d (head w=4, tail w=3) diverges from serial run", checkpoint)
		}
	}
}

// runCSVStopAfterWorkers is runCSVStopAfter on an explicit worker count.
func runCSVStopAfterWorkers(t *testing.T, sp scenario.Spec, n, workers int) string {
	t.Helper()
	var pow, fail bytes.Buffer
	stop := &stopAfter{n: n, errv: errStop}
	err := Sweep(sp, SweepOptions{Workers: workers, TrialStart: scramble}, NewCSVSink(&pow, &fail), stop)
	if err != errStop {
		t.Fatalf("sweep did not stop: %v", err)
	}
	return pow.String()
}

// slowSink stalls in Point — the merge stage must buffer completed
// points while the sink lags and still deliver them in index order.
// Run under -race (the CI race job), this hammers the worker/merger
// handoff: workers keep finishing points while Point sleeps.
type slowSink struct {
	delay time.Duration
	seen  []int
}

func (s *slowSink) Begin(SweepMeta) error { return nil }
func (s *slowSink) Point(pr PointResult) error {
	time.Sleep(s.delay)
	s.seen = append(s.seen, pr.Index)
	return nil
}
func (s *slowSink) End() error { return nil }

func TestSweepMergeSlowSinkStaysInOrder(t *testing.T) {
	sp := unevenSpec()
	slow := &slowSink{delay: 3 * time.Millisecond}
	pow, _, _ := sweepOutput(t, sp, SweepOptions{Workers: 8, TrialStart: scramble}, slow)
	refPow, _, _ := sweepOutput(t, sp, SweepOptions{Workers: 1})
	if pow != refPow {
		t.Error("slow-sink run streams different CSV than the serial reference")
	}
	for i, idx := range slow.seen {
		if idx != i {
			t.Fatalf("slow sink saw point %d at position %d: %v", idx, i, slow.seen)
		}
	}
	if len(slow.seen) != len(sp.Points) {
		t.Fatalf("slow sink saw %d points, want %d", len(slow.seen), len(sp.Points))
	}
}

// A sink error mid-stream aborts the parallel sweep and surfaces as the
// sweep's error, exactly like the serial path.
func TestSweepSinkErrorAbortsParallel(t *testing.T) {
	sp := unevenSpec()
	stop := &stopAfter{n: 2, errv: errStop}
	var pb, fb bytes.Buffer
	err := Sweep(sp, SweepOptions{Workers: 8, TrialStart: scramble}, NewCSVSink(&pb, &fb), stop)
	if err != errStop {
		t.Fatalf("err = %v, want errStop", err)
	}
}

// appendChunks covers the range exactly, ragged tail included.
func TestAppendChunks(t *testing.T) {
	for _, tc := range []struct{ n, size, want int }{
		{10, 3, 4}, {10, 5, 2}, {1, 4, 1}, {0, 4, 0}, {7, 7, 1},
	} {
		chunks, added := appendChunks(nil, 2, tc.n, tc.size)
		if added != tc.want || len(chunks) != tc.want {
			t.Errorf("appendChunks(n=%d, size=%d) = %d chunks, want %d", tc.n, tc.size, added, tc.want)
		}
		covered := 0
		prev := 0
		for _, c := range chunks {
			if c.point != 2 {
				t.Errorf("chunk carries point %d, want 2", c.point)
			}
			if c.lo != prev {
				t.Errorf("chunk starts at %d, want %d", c.lo, prev)
			}
			covered += c.hi - c.lo
			prev = c.hi
		}
		if covered != tc.n {
			t.Errorf("chunks cover %d trials, want %d", covered, tc.n)
		}
	}
	if c := chunkTrials(400, 4); c != 25 {
		t.Errorf("chunkTrials(400, 4) = %d, want 25", c)
	}
	if c := chunkTrials(3, 8); c != 1 {
		t.Errorf("chunkTrials(3, 8) = %d, want 1", c)
	}
}

// A summary over the worker pool matches itself across repeated runs
// (the per-task seeds are fixed), regardless of worker interleaving.
func TestSummarySchedulerDeterministic(t *testing.T) {
	a, err := RunSummary(1, 3, []string{"XY", "PR"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSummary(1, 3, []string{"XY", "PR"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range a.Names {
		if a.Success[name] != b.Success[name] {
			t.Errorf("%s success differs across runs: %g vs %g", name, a.Success[name], b.Success[name])
		}
		if a.InvPowerGainVsXY[name] != b.InvPowerGainVsXY[name] {
			t.Errorf("%s gain differs across runs: %g vs %g", name, a.InvPowerGainVsXY[name], b.InvPowerGainVsXY[name])
		}
	}
}

// Worker counts far beyond the chunk count clamp cleanly.
func TestSweepMoreWorkersThanChunks(t *testing.T) {
	sp := smokeSpec()
	sp.Trials = 1
	var pb, fb bytes.Buffer
	if err := Sweep(sp, SweepOptions{Workers: 64}, NewCSVSink(&pb, &fb)); err != nil {
		t.Fatal(err)
	}
	var rb, rfb bytes.Buffer
	if err := Sweep(sp, SweepOptions{Workers: 1}, NewCSVSink(&rb, &rfb)); err != nil {
		t.Fatal(err)
	}
	if pb.String() != rb.String() {
		t.Error("oversubscribed sweep differs from serial")
	}
}
