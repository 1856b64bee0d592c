package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/solve"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolvePanicContainment pins the shard panic policy: an injected
// panic answers that one request with 500 and counts in Stats.Panics,
// and the SAME single shard answers the next request from a rebuilt
// scratch — one poisoned request cannot corrupt its successors.
func TestSolvePanicContainment(t *testing.T) {
	var bomb atomic.Bool
	s, ts := newTestServer(t, Config{SolveShards: 1, Chaos: &Chaos{
		SolveStart: func(string) error {
			if bomb.CompareAndSwap(true, false) {
				panic("injected solve fault")
			}
			return nil
		},
	}})
	req := SolveRequest{Mesh: "4x4", Policy: "XY", Comms: solveTestComms()}

	bomb.Store(true)
	resp, _ := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d, want 500", resp.StatusCode)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}

	// The lone shard worker survived and rebuilt; repeated requests all
	// succeed on the fresh scratch.
	for i := 0; i < 3; i++ {
		resp, out := postSolve(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK || out.Error != "" || !out.Feasible {
			t.Fatalf("request %d after the panic: status %d, out %+v", i, resp.StatusCode, out)
		}
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Errorf("Panics after recovery = %d, want still 1", st.Panics)
	}
}

// TestChaosSolveErrorIsContained: an injected solver error fails that
// one request the way a real solver failure would — in the response
// body, not the transport — and the shard keeps serving.
func TestChaosSolveErrorIsContained(t *testing.T) {
	var bomb atomic.Bool
	_, ts := newTestServer(t, Config{SolveShards: 1, Chaos: &Chaos{
		SolveStart: func(string) error {
			if bomb.CompareAndSwap(true, false) {
				return errors.New("injected solver failure")
			}
			return nil
		},
	}})
	req := SolveRequest{Mesh: "4x4", Policy: "XY", Comms: solveTestComms()}

	bomb.Store(true)
	resp, out := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("injected error: status %d, want 200 with the error in-band", resp.StatusCode)
	}
	if out.Error != "injected solver failure" {
		t.Errorf("error field %q", out.Error)
	}
	if resp, out := postSolve(t, ts.URL, req); resp.StatusCode != http.StatusOK || out.Error != "" {
		t.Errorf("next request on the same shard: status %d, error %q", resp.StatusCode, out.Error)
	}
}

// stallSolver spins until its stop poll fires — the tool that makes a
// deadline observable mid-solve.
type stallSolver struct{}

func (stallSolver) Name() string { return "STALLTEST" }

func (stallSolver) Route(in solve.Instance, opts solve.Options) (route.Routing, error) {
	for i := 0; i < 100_000; i++ {
		if opts.Stop != nil && opts.Stop() {
			return route.Routing{}, solve.ErrStopped
		}
		time.Sleep(time.Millisecond)
	}
	return solve.Route("XY", in, opts)
}

var stallOnce = func() func() { // registered lazily, once, like the other test solvers
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			solve.Register(stallSolver{})
		}
	}
}()

// TestSolveTimeout504 pins the deadline path: a solve that outlives
// SolveTimeout answers 504, counts in Stats.Timeouts, and the deadline
// reaches the solver's stop poll so the shard frees up for the next
// request instead of staying occupied.
func TestSolveTimeout504(t *testing.T) {
	stallOnce()
	s, ts := newTestServer(t, Config{SolveShards: 1, SolveTimeout: 50 * time.Millisecond})

	resp, _ := postSolve(t, ts.URL, SolveRequest{Mesh: "4x4", Policy: "STALLTEST", Comms: solveTestComms()})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled solve: status %d, want 504", resp.StatusCode)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
	// The stop poll released the lone shard: a fast policy answers well
	// within the deadline.
	resp, out := postSolve(t, ts.URL, SolveRequest{Mesh: "4x4", Policy: "XY", Comms: solveTestComms()})
	if resp.StatusCode != http.StatusOK || out.Error != "" {
		t.Errorf("fast solve after the timeout: status %d, error %q", resp.StatusCode, out.Error)
	}
}

// startSweep posts the spec with a cancellable request and returns the
// live response; the caller reads or cancels it.
func startSweep(t *testing.T, ctx context.Context, url string, sp scenario.Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSweepSoloDisconnectCancelsRun: the solo submitter of a sweep
// disconnecting mid-stream cancels the run — engine workers stop pulling
// trials well before the sweep would complete (observable through the
// chaos latency hook's trial counter) — and the abandoned partial run is
// never cached, so a resubmission is a fresh miss.
func TestSweepSoloDisconnectCancelsRun(t *testing.T) {
	sp := testSpec()
	sp.Trials = 64 // long enough that cancellation lands mid-run
	var trials atomic.Int64
	s, ts := newTestServer(t, Config{Chaos: &Chaos{TrialStart: func(_, _ int) {
		trials.Add(1)
		time.Sleep(2 * time.Millisecond)
	}}})

	ctx, cancel := context.WithCancel(context.Background())
	resp := startSweep(t, ctx, ts.URL, sp)
	defer resp.Body.Close()
	waitFor(t, "the run to start", func() bool { return trials.Load() > 0 })
	cancel()

	// The run goroutine observes the cancel, abandons the entry, and
	// exits; Wait returns only after that cleanup.
	s.sweeps.Wait()
	ran := trials.Load()
	total := int64(len(sp.Points) * sp.Trials)
	if ran >= total {
		t.Errorf("cancelled sweep ran all %d trials", total)
	}
	if st := s.Stats(); st.Canceled == 0 {
		t.Errorf("no cancellation counted: %+v", st)
	}

	// Never cached: the resubmission wins a fresh singleflight slot and,
	// undisturbed this time, streams the complete result.
	state, data := postSweep(t, ts.URL, sp)
	if state != "miss" {
		t.Errorf("resubmission after cancel: state %q, want miss", state)
	}
	if want := offlineJSONL(t, sp, 0); !bytes.Equal(data, want) {
		t.Error("post-cancel rerun differs from the offline sweep")
	}
}

// TestAttachedReaderSurvivesOtherLeaving: with two attached streams, one
// leaving does NOT cancel the run — the refcount keeps it alive and the
// remaining reader receives the complete byte-identical stream from the
// single execution.
func TestAttachedReaderSurvivesOtherLeaving(t *testing.T) {
	sp := testSpec()
	sp.Trials = 32
	want := offlineJSONL(t, sp, 0)
	s, ts := newTestServer(t, Config{Chaos: &Chaos{TrialStart: func(_, _ int) {
		time.Sleep(2 * time.Millisecond)
	}}})

	ctx, cancel := context.WithCancel(context.Background())
	first := startSweep(t, ctx, ts.URL, sp)
	defer first.Body.Close()
	waitFor(t, "the run to register", func() bool { return s.Stats().CacheMisses == 1 })

	second := make(chan []byte, 1)
	go func() {
		_, data := postSweep(t, ts.URL, sp)
		second <- data
	}()
	waitFor(t, "the second stream to attach", func() bool {
		st := s.Stats()
		return st.CacheAttaches >= 1 || st.CacheHits >= 1
	})

	cancel() // the first reader leaves; the second holds the run alive
	data := <-second
	if !bytes.Equal(data, want) {
		t.Error("surviving reader's stream differs from the offline sweep")
	}
	if st := s.Stats(); st.SweepsRun != 1 {
		t.Errorf("SweepsRun = %d, want 1", st.SweepsRun)
	}
}

// TestSweepWorkerPanicContainment: a panic on a sweep worker (injected
// through the trial hook) ends the stream with a terminal in-band error
// record, counts in Stats.Panics, is never cached — and the server keeps
// serving: the unarmed resubmission runs fresh and streams the full
// result.
func TestSweepWorkerPanicContainment(t *testing.T) {
	sp := testSpec()
	var bomb atomic.Bool
	s, ts := newTestServer(t, Config{Chaos: &Chaos{TrialStart: func(_, _ int) {
		if bomb.CompareAndSwap(true, false) {
			panic("injected trial fault")
		}
	}}})

	bomb.Store(true)
	state, data := postSweep(t, ts.URL, sp)
	if state != "miss" {
		t.Fatalf("first submission: state %q, want miss", state)
	}
	if !bytes.Contains(data, []byte(`"type":"error"`)) {
		t.Errorf("failed sweep stream carries no terminal error record: %q", data)
	}
	waitFor(t, "the panic to be counted", func() bool { return s.Stats().Panics >= 1 })

	state, data = postSweep(t, ts.URL, sp)
	if state != "miss" {
		t.Errorf("resubmission after the panic: state %q, want miss (failures are never cached)", state)
	}
	if want := offlineJSONL(t, sp, 0); !bytes.Equal(data, want) {
		t.Error("post-panic rerun differs from the offline sweep")
	}
}

// TestSweepTimeoutEndsRun: a sweep outliving SweepTimeout ends with a
// terminal error record, counts in Stats.Timeouts, and is not cached.
func TestSweepTimeoutEndsRun(t *testing.T) {
	sp := testSpec()
	sp.Trials = 64
	s, ts := newTestServer(t, Config{SweepTimeout: 50 * time.Millisecond,
		Chaos: &Chaos{TrialStart: func(_, _ int) { time.Sleep(2 * time.Millisecond) }}})

	_, data := postSweep(t, ts.URL, sp)
	if !bytes.Contains(data, []byte(`"type":"error"`)) {
		t.Errorf("timed-out sweep stream carries no terminal error record: %q", data)
	}
	st := s.Stats()
	if st.Timeouts == 0 {
		t.Errorf("no timeout counted: %+v", st)
	}
	if st.CacheEntries != 0 {
		t.Errorf("timed-out partial run was cached: %+v", st)
	}
}

// TestChaosSweepStartError: an injected pre-run failure produces a
// terminal error record, never caches, and the next submission runs
// clean.
func TestChaosSweepStartError(t *testing.T) {
	sp := testSpec()
	var bomb atomic.Bool
	_, ts := newTestServer(t, Config{Chaos: &Chaos{SweepStart: func(hash string) error {
		if bomb.CompareAndSwap(true, false) {
			return fmt.Errorf("injected sweep failure for %s", hash)
		}
		return nil
	}}})

	bomb.Store(true)
	_, data := postSweep(t, ts.URL, sp)
	if !bytes.Contains(data, []byte("injected sweep failure")) {
		t.Errorf("stream carries no injected failure record: %q", data)
	}
	state, data := postSweep(t, ts.URL, sp)
	if state != "miss" {
		t.Errorf("resubmission: state %q, want miss", state)
	}
	if want := offlineJSONL(t, sp, 0); !bytes.Equal(data, want) {
		t.Error("post-failure rerun differs from the offline sweep")
	}
}

// TestReadyzFlipsOnDrain: readiness is distinct from liveness — a
// draining server answers /readyz 503 while /healthz stays 200.
func TestReadyzFlipsOnDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz while serving: %d, want 200", code)
	}
	s.BeginDrain()
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200 (drain is not death)", code)
	}
}

// TestCloseLeaksNoGoroutines: after a mix of completed and cancelled
// work, Close returns with every server goroutine — shard workers, sweep
// runners, attached-stream wakers — gone.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	registerCounting()
	before := runtime.NumGoroutine()

	s := New(Config{SolveShards: 4, Chaos: &Chaos{TrialStart: func(_, _ int) {
		time.Sleep(time.Millisecond)
	}}})
	ts := httptest.NewServer(s.Handler())

	// A completed solve, a completed sweep, and a cancelled solo sweep.
	resp, out := postSolve(t, ts.URL, SolveRequest{Mesh: "4x4", Policy: "XY", Comms: solveTestComms()})
	if resp.StatusCode != http.StatusOK || out.Error != "" {
		t.Fatalf("solve: %d %q", resp.StatusCode, out.Error)
	}
	postSweep(t, ts.URL, testSpec())
	long := testSpec()
	long.Trials = 64
	ctx, cancel := context.WithCancel(context.Background())
	live := startSweep(t, ctx, ts.URL, long)
	buf := make([]byte, 1)
	if _, err := live.Body.Read(buf); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	cancel()
	live.Body.Close()

	ts.Close()
	s.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines after Close: %d, was %d before the server existed", g, before)
	}
}
