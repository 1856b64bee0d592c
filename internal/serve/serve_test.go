package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/experiments"
	"repro/internal/mesh"
	"repro/internal/multipath"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/solve"
)

// countingSolver wraps XY, counting every Route call and optionally
// dawdling — the probe that proves a cache hit re-runs no solver and
// widens the in-flight window for attach tests.
type countingSolver struct{}

var (
	solveCalls atomic.Int64
	solveDelay atomic.Int64 // nanoseconds per solve
)

func (countingSolver) Name() string { return "CXY" }

func (countingSolver) Route(in solve.Instance, opts solve.Options) (route.Routing, error) {
	solveCalls.Add(1)
	if d := solveDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return solve.Route("XY", in, opts)
}

var registerOnce sync.Once

func registerCounting() {
	registerOnce.Do(func() { solve.Register(countingSolver{}) })
}

// testSpec is the small sweep every cache test shares.
func testSpec() scenario.Spec {
	return scenario.Spec{
		ID:       "serve-test",
		Mesh:     "4x4",
		Source:   "uniform",
		Params:   scenario.Params{WMin: 100, WMax: 900},
		Axis:     scenario.AxisN,
		Points:   []float64{3, 5},
		Trials:   4,
		Seed:     9,
		Policies: []string{"CXY"},
	}
}

// offlineJSONL runs the spec through the offline streaming pipeline —
// the byte-level reference every server response must match.
func offlineJSONL(t *testing.T, sp scenario.Spec, workers int) []byte {
	t.Helper()
	registerCounting()
	var buf bytes.Buffer
	if err := experiments.Sweep(sp, experiments.SweepOptions{Workers: workers}, experiments.NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	registerCounting()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSweep(t *testing.T, url string, sp scenario.Spec) (string, []byte) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sweep: status %d: %s", resp.StatusCode, data)
	}
	return resp.Header.Get("X-Routed-Cache"), data
}

// TestSweepByteIdentityAcrossCacheStates pins the service contract: the
// streamed response equals the offline Sweep bytes when cold, when
// attached to an in-flight run, and on a warm cache hit — and the warm
// hit runs zero solver calls.
func TestSweepByteIdentityAcrossCacheStates(t *testing.T) {
	sp := testSpec()
	want := offlineJSONL(t, sp, 0)
	_, ts := newTestServer(t, Config{})

	state, data := postSweep(t, ts.URL, sp)
	if state != "miss" {
		t.Errorf("first submission: cache state %q, want miss", state)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("cold response differs from offline sweep:\ngot  %q\nwant %q", data, want)
	}

	before := solveCalls.Load()
	state, data = postSweep(t, ts.URL, sp)
	if state != "hit" {
		t.Errorf("second submission: cache state %q, want hit", state)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("warm response differs from offline sweep")
	}
	if calls := solveCalls.Load() - before; calls != 0 {
		t.Errorf("warm cache hit ran %d solver calls, want 0", calls)
	}
}

// TestSweepByteIdentityAcrossWorkerCounts pins the merge-stage contract
// through the HTTP path: every SweepWorkers setting streams identical
// bytes.
func TestSweepByteIdentityAcrossWorkerCounts(t *testing.T) {
	sp := testSpec()
	want := offlineJSONL(t, sp, 1)
	for _, workers := range []int{1, 2, 3} {
		_, ts := newTestServer(t, Config{SweepWorkers: workers})
		_, data := postSweep(t, ts.URL, sp)
		if !bytes.Equal(data, want) {
			t.Errorf("workers=%d: response differs from serial offline sweep", workers)
		}
	}
}

// TestSingleflightConcurrentSubmissions is the cache's core guarantee
// under race: N concurrent identical submissions execute exactly one
// sweep, and every response carries the same bytes as the offline run.
func TestSingleflightConcurrentSubmissions(t *testing.T) {
	sp := testSpec()
	want := offlineJSONL(t, sp, 0)
	s, ts := newTestServer(t, Config{})

	solveDelay.Store(int64(200 * time.Microsecond))
	defer solveDelay.Store(0)

	const n = 8
	before := solveCalls.Load()
	responses := make([][]byte, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			_, responses[i] = postSweep(t, ts.URL, sp)
		}(i)
	}
	wg.Wait()

	// Exactly one execution: one spec expansion of 2 points x 4 trials,
	// one CXY call per trial.
	wantCalls := int64(len(sp.Points) * sp.Trials)
	if calls := solveCalls.Load() - before; calls != wantCalls {
		t.Errorf("%d concurrent submissions ran %d solver calls, want %d (one sweep)", n, calls, wantCalls)
	}
	if st := s.Stats(); st.SweepsRun != 1 {
		t.Errorf("SweepsRun = %d, want 1", st.SweepsRun)
	}
	for i, data := range responses {
		if !bytes.Equal(data, want) {
			t.Errorf("response %d differs from offline sweep", i)
		}
	}
}

// TestAttachStreamsInFlightRun verifies a second submission joins the
// running sweep (state attach, no second execution) and still receives
// the complete byte-identical stream.
func TestAttachStreamsInFlightRun(t *testing.T) {
	sp := testSpec()
	sp.Trials = 8 // widen the in-flight window
	want := offlineJSONL(t, sp, 0)
	s, ts := newTestServer(t, Config{})

	solveDelay.Store(int64(2 * time.Millisecond))
	defer solveDelay.Store(0)

	first := make(chan []byte, 1)
	go func() {
		_, data := postSweep(t, ts.URL, sp)
		first <- data
	}()

	// Wait until the run is registered in flight, then attach.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().CacheMisses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}
	state, data := postSweep(t, ts.URL, sp)
	if state != "attach" && state != "hit" {
		t.Errorf("second submission: cache state %q, want attach (or hit if the run outpaced us)", state)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("attached response differs from offline sweep")
	}
	if got := <-first; !bytes.Equal(got, want) {
		t.Errorf("first response differs from offline sweep")
	}
	if st := s.Stats(); st.SweepsRun != 1 {
		t.Errorf("SweepsRun = %d, want 1", st.SweepsRun)
	}
}

// TestCacheLRUEviction bounds the cache: the oldest completed sweep is
// evicted and a resubmission is a fresh miss.
func TestCacheLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 2})
	specs := make([]scenario.Spec, 3)
	for i := range specs {
		specs[i] = testSpec()
		specs[i].Seed = int64(100 + i) // three distinct hashes
		postSweep(t, ts.URL, specs[i])
	}
	st := s.Stats()
	if st.CacheEvictions != 1 || st.CacheEntries != 2 {
		t.Errorf("after 3 sweeps with cap 2: evictions=%d entries=%d, want 1 and 2", st.CacheEvictions, st.CacheEntries)
	}
	if state, _ := postSweep(t, ts.URL, specs[0]); state != "miss" {
		t.Errorf("evicted spec resubmission: state %q, want miss", state)
	}
	if state, _ := postSweep(t, ts.URL, specs[2]); state != "hit" {
		t.Errorf("recent spec resubmission: state %q, want hit", state)
	}
}

// TestSweepRejectsBadSpecs covers the admission guards: malformed specs,
// unknown policies, and the MaxTrials latency guardrail all 400 before
// any cache entry exists.
func TestSweepRejectsBadSpecs(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxTrials: 10})
	for name, body := range map[string]string{
		"unknown field":  `{"sourcee":"uniform"}`,
		"unknown source": `{"source":"nope"}`,
		"unknown policy": `{"source":"uniform","params":{"wmin":1,"wmax":2},"policies":["NOPE"]}`,
		"trials cap":     `{"source":"uniform","params":{"wmin":1,"wmax":2},"trials":11}`,
	} {
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.CacheMisses != 0 || st.SweepsRun != 0 {
		t.Errorf("rejected specs touched the cache: %+v", st)
	}
}

func postSolve(t *testing.T, url string, req SolveRequest) (*http.Response, SolveResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// solveTestComms is a small feasible set on the (1-based) 4x4 mesh.
func solveTestComms() []SolveComm {
	return []SolveComm{
		{ID: 0, Src: [2]int{1, 1}, Dst: [2]int{4, 3}, Rate: 800},
		{ID: 1, Src: [2]int{2, 4}, Dst: [2]int{3, 1}, Rate: 600},
		{ID: 2, Src: [2]int{4, 4}, Dst: [2]int{1, 2}, Rate: 400},
	}
}

// TestSolveMatchesDirectEvaluation checks the endpoint against an
// in-process solve+evaluate of the same instance.
func TestSolveMatchesDirectEvaluation(t *testing.T) {
	_, ts := newTestServer(t, Config{SolveShards: 2})
	req := SolveRequest{Mesh: "4x4", Policy: "xyi", Comms: solveTestComms()}
	resp, got := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Policy != "XYI" {
		t.Errorf("policy echoed as %q, want canonical XYI", got.Policy)
	}

	in := solveInstance(t, req)
	r, err := solve.Route("XYI", in, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := route.Evaluate(r, in.Model)
	if got.Feasible != want.Feasible {
		t.Errorf("feasible = %v, want %v", got.Feasible, want.Feasible)
	}
	if diff := got.TotalMW - want.Power.Total(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("total power %g, want %g", got.TotalMW, want.Power.Total())
	}
}

// solveInstance rebuilds the solve.Instance the handler derives from the
// request, for offline comparison.
func solveInstance(t *testing.T, req SolveRequest) solve.Instance {
	t.Helper()
	p, q, err := scenario.ParseMesh(req.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	model, err := modelFor(req.Power)
	if err != nil {
		t.Fatal(err)
	}
	in := solve.Instance{Mesh: mesh.MustNew(p, q), Model: model}
	for _, c := range req.Comms {
		in.Comms = append(in.Comms, comm.Comm{
			ID:   c.ID,
			Src:  mesh.Coord{U: c.Src[0], V: c.Src[1]},
			Dst:  mesh.Coord{U: c.Dst[0], V: c.Dst[1]},
			Rate: c.Rate,
		})
	}
	return in
}

// TestSolveWithSimReplay exercises the optional NoC replay: the
// accounting identity must hold on the reported counters.
func TestSolveWithSimReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SolveRequest{
		Mesh: "4x4", Policy: "PR", Comms: solveTestComms(),
		Sim: &SimRequest{HorizonUS: 200, WarmupUS: 50, Switching: "ct"},
	}
	resp, got := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Sim == nil {
		t.Fatal("no sim result returned")
	}
	if got.Sim.Injected == 0 {
		t.Error("sim injected nothing over 200us")
	}
	if got.Sim.Injected != got.Sim.Delivered+got.Sim.Stalled+got.Sim.InFlight {
		t.Errorf("accounting identity violated: %+v", got.Sim)
	}
}

// TestSolveRejectsBadRequests covers the 400 paths.
func TestSolveRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]SolveRequest{
		"unknown policy": {Policy: "NOPE", Comms: solveTestComms()},
		"bad mesh":       {Mesh: "0x9", Policy: "XY", Comms: solveTestComms()},
		"bad power":      {Power: "magic", Policy: "XY", Comms: solveTestComms()},
		"bad switching":  {Policy: "XY", Comms: solveTestComms(), Sim: &SimRequest{Switching: "warp"}},
		"zero rate":      {Policy: "XY", Comms: []SolveComm{{Src: [2]int{1, 1}, Dst: [2]int{2, 2}}}},
		"off-mesh coord": {Policy: "XY", Comms: []SolveComm{{Src: [2]int{0, 0}, Dst: [2]int{1, 1}, Rate: 5}}},
	} {
		resp, _ := postSolve(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// An equal-split count above multipath.MaxSplit is the policy's error,
// answered at once instead of building the fragments, and the shard keeps
// serving.
func TestSolveRejectsHugeSplit(t *testing.T) {
	_, ts := newTestServer(t, Config{SolveShards: 1})
	for _, n := range []int{multipath.MaxSplit + 1, 1 << 30} {
		start := time.Now()
		resp, got := postSolve(t, ts.URL, SolveRequest{Mesh: "4x4", Policy: "2MP", MaxPaths: n, Comms: solveTestComms()})
		if resp.StatusCode != http.StatusOK || !strings.Contains(got.Error, "split count") {
			t.Errorf("max_paths %d: status %d, error %q, want 200 carrying the split-count error", n, resp.StatusCode, got.Error)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("max_paths %d: answered after %v", n, d)
		}
	}
	resp, got := postSolve(t, ts.URL, SolveRequest{Mesh: "4x4", Policy: "2MP", MaxPaths: 4, Comms: solveTestComms()})
	if resp.StatusCode != http.StatusOK || got.Error != "" || !got.Feasible {
		t.Errorf("after the rejected splits: status %d, %+v", resp.StatusCode, got)
	}
}

// blockingSolver parks until released — the tool that fills the solve
// queues deterministically for the backpressure test.
type blockingSolver struct{}

var (
	blockStarted = make(chan struct{}, 64)
	blockRelease = make(chan struct{})
	blockOnce    sync.Once
)

func (blockingSolver) Name() string { return "BLOCKTEST" }

func (blockingSolver) Route(in solve.Instance, opts solve.Options) (route.Routing, error) {
	blockStarted <- struct{}{}
	<-blockRelease
	return solve.Route("XY", in, opts)
}

// TestSolveBackpressure503 pins the latency guardrail: with one shard,
// a one-deep queue, a parked worker and a full queue, the next request
// is shed immediately with 503 instead of waiting.
func TestSolveBackpressure503(t *testing.T) {
	blockOnce.Do(func() { solve.Register(blockingSolver{}) })
	s, ts := newTestServer(t, Config{SolveShards: 1, ShardQueue: 1})
	req := SolveRequest{Mesh: "4x4", Policy: "BLOCKTEST", Comms: solveTestComms()}

	results := make(chan int, 1)
	go func() { // occupies the worker
		resp, _ := postSolve(t, ts.URL, req)
		results <- resp.StatusCode
	}()
	<-blockStarted

	// Fill the one-deep queue deterministically, below the HTTP rim.
	xy, err := solve.Lookup("XY")
	if err != nil {
		t.Fatal(err)
	}
	filler := &solveJob{
		in:     solveInstance(t, SolveRequest{Mesh: "4x4", Comms: solveTestComms()}),
		solver: xy,
		done:   make(chan solveOutcome, 1),
	}
	if !s.enqueue(filler) {
		t.Fatal("queue full before the filler job")
	}

	// Worker parked, queue full: the next request is shed immediately.
	resp, _ := postSolve(t, ts.URL, SolveRequest{Mesh: "4x4", Policy: "XY", Comms: solveTestComms()})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request against a full queue: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After")
	}
	if s.Stats().SolveRejects == 0 {
		t.Error("no rejects counted")
	}

	close(blockRelease)
	if st := <-results; st != http.StatusOK {
		t.Errorf("parked request finished with %d", st)
	}
	if out := <-filler.done; out.err != nil || !out.feasible {
		t.Errorf("queued job drained badly: %+v", out)
	}
}

// TestCloseDrainsQueuedSolves: jobs already queued when Close begins are
// still answered.
func TestCloseDrainsQueuedSolves(t *testing.T) {
	registerCounting()
	s := New(Config{SolveShards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postSolve(t, ts.URL, SolveRequest{Mesh: "4x4", Policy: "XY", Comms: solveTestComms()})
			codes <- resp.StatusCode
		}()
	}
	wg.Wait() // all handlers done (httptest serves them concurrently)
	s.Close()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("solve during normal operation: status %d", code)
		}
	}
	// After Close the server sheds instead of deadlocking.
	resp, _ := postSolve(t, ts.URL, SolveRequest{Mesh: "4x4", Policy: "XY", Comms: solveTestComms()})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("solve after Close: status %d, want 503", resp.StatusCode)
	}
}

// TestStatsEndpoint sanity-checks the counters surface.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postSweep(t, ts.URL, testSpec())
	postSweep(t, ts.URL, testSpec())
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SweepsRun != 1 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("stats after miss+hit: %+v", st)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}
