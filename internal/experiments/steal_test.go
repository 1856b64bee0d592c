package experiments

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// withStealHook installs a scheduler test hook for the duration of the
// test. Hooks run concurrently on every worker, so they must be
// self-synchronized.
func withStealHook(t *testing.T, hook func(worker int, c chunk)) {
	t.Helper()
	stealTestHook = hook
	t.Cleanup(func() { stealTestHook = nil })
}

// scrambleHook delays each chunk by a duration derived from its
// identity, scrambling completion order across workers without any
// randomness the race detector or a rerun could disagree about.
func scrambleHook(worker int, c chunk) {
	time.Sleep(time.Duration((c.point*31+c.lo*7+worker*13)%5) * time.Millisecond)
}

// Every chunk runs exactly once, whatever the worker count, and done
// fires once per chunk.
func TestRunStealingRunsEveryChunkOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		chunks, _ := appendChunks(nil, 0, 50, 3)
		ran := make([]atomic.Int32, 50)
		var doneCount atomic.Int32
		err := runStealing(chunks, workers, nil,
			func() struct{} { return struct{}{} },
			func(_ struct{}, c chunk) error {
				for i := c.lo; i < c.hi; i++ {
					ran[i].Add(1)
				}
				return nil
			},
			func(c chunk) { doneCount.Add(1) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
		if got, want := doneCount.Load(), int32(len(chunks)); got != want {
			t.Errorf("workers=%d: done fired %d times, want %d", workers, got, want)
		}
	}
}

// A worker stalled on its first chunk loses the rest of its deque to
// the idle worker — the stealing path, observed through the test hook.
func TestRunStealingStealsFromStalledWorker(t *testing.T) {
	const nchunks = 8
	chunks, _ := appendChunks(nil, 0, nchunks, 1)
	var mu sync.Mutex
	perWorker := make(map[int]int)
	var stallOnce sync.Once
	withStealHook(t, func(worker int, c chunk) {
		if worker == 0 {
			stallOnce.Do(func() { time.Sleep(100 * time.Millisecond) })
		}
		mu.Lock()
		perWorker[worker]++
		mu.Unlock()
	})
	err := runStealing(chunks, 2, nil,
		func() struct{} { return struct{}{} },
		func(_ struct{}, c chunk) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin seeds each deque with 4 chunks; with worker 0 asleep
	// for its first, worker 1 must have drained its own and stolen from
	// worker 0's backlog.
	if perWorker[1] < 5 {
		t.Errorf("worker 1 executed %d chunks, want >= 5 (no stealing happened): %v", perWorker[1], perWorker)
	}
}

// The first error halts the fleet and is the one returned.
func TestRunStealingFirstErrorHalts(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		chunks, _ := appendChunks(nil, 0, 40, 1)
		var doneCount atomic.Int32
		err := runStealing(chunks, workers, nil,
			func() struct{} { return struct{}{} },
			func(_ struct{}, c chunk) error {
				if c.lo == 7 {
					return boom
				}
				return nil
			},
			func(c chunk) { doneCount.Add(1) })
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if n := doneCount.Load(); n >= int32(len(chunks)) {
			t.Errorf("workers=%d: all %d chunks completed despite the error", workers, n)
		}
	}
}

// An external stop aborts the fleet without an error of its own.
func TestRunStealingExternalStop(t *testing.T) {
	chunks, _ := appendChunks(nil, 0, 1000, 1)
	var stopped atomic.Bool
	var ran atomic.Int32
	err := runStealing(chunks, 4, stopped.Load,
		func() struct{} { return struct{}{} },
		func(_ struct{}, c chunk) error {
			if ran.Add(1) == 10 {
				stopped.Store(true)
			}
			return nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Error("stop did not abort the fleet")
	}
}

// stealSpec is a multi-point sweep with deliberately unequal point
// costs: big-n XYI points next to tiny ones, so chunks of slow points
// overlap chunks of fast ones under the scheduler.
func stealSpec() scenario.Spec {
	return scenario.Spec{
		ID: "steal", Title: "steal sweep",
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
// reference, a couple of odd fleet sizes, heavy oversubscription — must
// stream byte-identical CSV and JSONL, with the test hook scrambling
// chunk completion order so in-order delivery is the merge stage's
// doing, not the scheduler's accident.
func TestSweepWorkersByteIdentical(t *testing.T) {
	withStealHook(t, scrambleHook)
	sp := stealSpec()
	refPow, refFail, refJSONL := sweepOutput(t, sp, SweepOptions{Workers: 1})
	for _, workers := range []int{2, 3, 8} {
		pow, fail, jsonl := sweepOutput(t, sp, SweepOptions{Workers: workers})
		if pow != refPow || fail != refFail || jsonl != refJSONL {
			t.Errorf("workers=%d streams different output than workers=1\n--- power (w=%d) ---\n%s--- power (w=1) ---\n%s",
				workers, workers, pow, refPow)
		}
	}
}

// Resume keeps its contract on the parallel scheduler: a head run at one
// worker count plus a tail resumed at another equals the uninterrupted
// serial run byte for byte.
func TestSweepResumeAcrossWorkerCounts(t *testing.T) {
	withStealHook(t, scrambleHook)
	sp := stealSpec()
	fullPow, _, _ := sweepOutput(t, sp, SweepOptions{Workers: 1})
	for checkpoint := 1; checkpoint < len(sp.Points); checkpoint++ {
		headPow := runCSVStopAfterWorkers(t, sp, checkpoint, 4)
		var tb, fb bytes.Buffer
		if err := Sweep(sp, SweepOptions{Start: checkpoint, Workers: 3}, NewCSVSink(&tb, &fb)); err != nil {
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
	err := Sweep(sp, SweepOptions{Workers: workers}, NewCSVSink(&pow, &fail), stop)
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
	withStealHook(t, scrambleHook)
	sp := stealSpec()
	slow := &slowSink{delay: 3 * time.Millisecond}
	pow, _, _ := sweepOutput(t, sp, SweepOptions{Workers: 8}, slow)
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
	withStealHook(t, scrambleHook)
	sp := stealSpec()
	stop := &stopAfter{n: 2, errv: errStop}
	var pb, fb bytes.Buffer
	err := Sweep(sp, SweepOptions{Workers: 8}, NewCSVSink(&pb, &fb), stop)
	if err != errStop {
		t.Fatalf("err = %v, want errStop", err)
	}
}

// The firstError helper keeps the first report and only the first.
func TestFirstError(t *testing.T) {
	var f firstError
	if f.Failed() || f.Err() != nil {
		t.Fatal("zero value reports a failure")
	}
	f.Report(nil)
	if f.Failed() {
		t.Fatal("nil report recorded")
	}
	e1, e2 := errors.New("one"), errors.New("two")
	f.Report(e1)
	f.Report(e2)
	if !f.Failed() || f.Err() != e1 {
		t.Fatalf("Err() = %v, want the first report", f.Err())
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

// A summary over the scheduler matches itself across repeated runs (the
// per-task seeds are fixed), regardless of fleet interleaving.
func TestSummarySchedulerDeterministic(t *testing.T) {
	withStealHook(t, scrambleHook)
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
