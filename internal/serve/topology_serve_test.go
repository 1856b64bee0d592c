package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/solve"
	"repro/internal/topo"
)

// torusSpec is a tiny non-mesh sweep for the service tests.
func torusSpec() scenario.Spec {
	return scenario.Spec{
		ID:       "serve-torus",
		Topology: "torus:4x4",
		Source:   "uniform",
		Params:   scenario.Params{WMin: 100, WMax: 900},
		Axis:     scenario.AxisN,
		Points:   []float64{3, 6},
		Trials:   3,
		Seed:     2,
		Policies: []string{"TABLE"},
	}
}

// TestSweepTopologyByteIdentity runs a torus sweep through /sweep: the
// response must equal the offline pipeline byte for byte, cold and on a
// warm cache hit.
func TestSweepTopologyByteIdentity(t *testing.T) {
	sp := torusSpec()
	want := offlineJSONL(t, sp, 0)
	_, ts := newTestServer(t, Config{})

	state, data := postSweep(t, ts.URL, sp)
	if state != "miss" {
		t.Errorf("first torus submission: cache state %q, want miss", state)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("cold torus response differs from offline sweep:\ngot  %q\nwant %q", data, want)
	}
	state, data = postSweep(t, ts.URL, sp)
	if state != "hit" {
		t.Errorf("second torus submission: cache state %q, want hit", state)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("warm torus response differs from offline sweep")
	}
}

// TestSweepTopologyRejectsMeshOnlyPolicies pins the fail-before-cache
// contract: a torus sweep with mesh-only policies is a 400, leaves no
// cache entry behind, and the corrected spec then runs as a clean miss.
func TestSweepTopologyRejectsMeshOnlyPolicies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := torusSpec()
	bad.Policies = []string{"XY"}
	body, _ := postSweepRaw(t, ts.URL, bad)
	if body.StatusCode != http.StatusBadRequest {
		t.Fatalf("mesh-only policy on a torus: status %d, want 400", body.StatusCode)
	}
	state, _ := postSweep(t, ts.URL, torusSpec())
	if state != "miss" {
		t.Errorf("corrected spec after a rejected one: cache state %q, want miss", state)
	}
}

// postSweepRaw posts a spec and returns the raw response without
// asserting 200, for the rejection paths.
func postSweepRaw(t *testing.T, url string, sp scenario.Spec) (*http.Response, string) {
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
	return resp, string(data)
}

// TestSolveTopologyMatchesDirectEvaluation routes TABLE on a torus and a
// circulant through /solve and checks the reported power against the
// in-process solve+evaluate of the same instance.
func TestSolveTopologyMatchesDirectEvaluation(t *testing.T) {
	_, ts := newTestServer(t, Config{SolveShards: 2})
	for _, spec := range []string{"torus:4x4", "circulant:16:1,4"} {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Endpoints as carrier coordinates: valid on both families.
		car := tp.Carrier()
		comms := []SolveComm{
			{ID: 0, Src: coordArr(car.CoordAt(0)), Dst: coordArr(car.CoordAt(car.NumCores() - 1)), Rate: 700},
			{ID: 1, Src: coordArr(car.CoordAt(3)), Dst: coordArr(car.CoordAt(1)), Rate: 500},
		}
		req := SolveRequest{Topology: spec, Policy: "table", Comms: comms}
		resp, got := postSolve(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", spec, resp.StatusCode)
		}
		if got.Policy != "TABLE" {
			t.Errorf("%s: policy echoed as %q, want canonical TABLE", spec, got.Policy)
		}
		in := solve.Instance{Topo: tp, Model: mustModel(t, ""), Comms: commSet(comms)}
		r, err := solve.Route("TABLE", in, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := route.Evaluate(r, in.Model)
		if got.Feasible != want.Feasible {
			t.Errorf("%s: feasible = %v, want %v", spec, got.Feasible, want.Feasible)
		}
		if diff := got.TotalMW - want.Power.Total(); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: total power %g, want %g", spec, got.TotalMW, want.Power.Total())
		}
	}
}

func coordArr(c mesh.Coord) [2]int { return [2]int{c.U, c.V} }

func commSet(cs []SolveComm) comm.Set {
	set := make(comm.Set, len(cs))
	for i, c := range cs {
		set[i] = comm.Comm{
			ID:   c.ID,
			Src:  mesh.Coord{U: c.Src[0], V: c.Src[1]},
			Dst:  mesh.Coord{U: c.Dst[0], V: c.Dst[1]},
			Rate: c.Rate,
		}
	}
	return set
}

func mustModel(t *testing.T, name string) power.Model {
	t.Helper()
	model, err := modelFor(name)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestSolveTopologyRejectsBadRequests covers the topology-specific 400
// paths on /solve.
func TestSolveTopologyRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	torusComms := []SolveComm{{ID: 0, Src: [2]int{1, 1}, Dst: [2]int{3, 3}, Rate: 500}}
	for name, req := range map[string]SolveRequest{
		"mesh and topology":     {Mesh: "4x4", Topology: "torus:4x4", Policy: "TABLE", Comms: torusComms},
		"mesh-spelled topology": {Topology: "mesh:4x4", Policy: "TABLE", Comms: torusComms},
		"mesh-only policy":      {Topology: "torus:4x4", Policy: "PR", Comms: torusComms},
		"unknown family":        {Topology: "hypercube:16", Policy: "TABLE", Comms: torusComms},
		"off-topology coord":    {Topology: "torus:4x4", Policy: "TABLE", Comms: []SolveComm{{Src: [2]int{9, 9}, Dst: [2]int{1, 1}, Rate: 5}}},
	} {
		resp, _ := postSolve(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestOversizedPlatformsRejected pins the topo.MaxCores cap at the
// service edge: a platform one row past 32×32 is a 400 on /solve and on
// /sweep, before any routing table is built or any cache entry exists.
func TestOversizedPlatformsRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	torusComms := []SolveComm{{ID: 0, Src: [2]int{1, 1}, Dst: [2]int{3, 3}, Rate: 500}}
	for name, req := range map[string]SolveRequest{
		"torus": {Topology: "torus:33x32", Policy: "TABLE", Comms: torusComms},
		"mesh":  {Mesh: "33x32", Policy: "XY", Comms: solveTestComms()},
	} {
		if resp, _ := postSolve(t, ts.URL, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/solve on a %s of 33x32: status %d, want 400", name, resp.StatusCode)
		}
	}
	torus, mesh := torusSpec(), torusSpec()
	torus.Topology = "torus:33x32"
	mesh.Topology, mesh.Mesh, mesh.Policies = "", "33x32", []string{"XY"}
	for name, sp := range map[string]scenario.Spec{"torus": torus, "mesh": mesh} {
		if resp, _ := postSweepRaw(t, ts.URL, sp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/sweep on a %s of 33x32: status %d, want 400", name, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.CacheMisses != 0 || st.SweepsRun != 0 {
		t.Errorf("rejected specs touched the cache: %+v", st)
	}
}

// TestPlatformCacheBounded pins the server's one platform cache: spelling
// variants of a platform share one entry and one value, and cap + 1
// distinct platforms leave the cache at the cap, with every answer
// unchanged by the eviction.
func TestPlatformCacheBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{SolveShards: 2})
	comms := []SolveComm{{ID: 0, Src: [2]int{1, 1}, Dst: [2]int{1, 2}, Rate: 500}}
	answer := func(req SolveRequest) SolveResponse {
		t.Helper()
		resp, got := postSolve(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d", req, resp.StatusCode)
		}
		return got
	}
	want := answer(SolveRequest{Topology: "torus:8x8", Policy: "TABLE", Comms: comms})
	for _, spelling := range []string{"torus:8X8", " torus:8x8"} {
		if got := answer(SolveRequest{Topology: spelling, Policy: "TABLE", Comms: comms}); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: answer %+v, want %+v", spelling, got, want)
		}
	}
	if n := len(s.platforms.byKey); n != 1 {
		t.Errorf("three spellings of torus:8x8 hold %d cache entries, want 1", n)
	}

	first := SolveRequest{Mesh: "2x2", Policy: "XY", Comms: comms}
	wantFirst := answer(first)
	for i := 0; i < maxPlatforms-1; i++ { // cap + 1 distinct platforms with the torus
		answer(SolveRequest{Mesh: fmt.Sprintf("2x%d", 3+i), Policy: "XY", Comms: comms})
	}
	if n := len(s.platforms.byKey); n != maxPlatforms {
		t.Errorf("cache holds %d platforms after %d distinct ones, cap %d", n, maxPlatforms+1, maxPlatforms)
	}
	if got := answer(first); !reflect.DeepEqual(got, wantFirst) {
		t.Errorf("answer after eviction %+v, want %+v", got, wantFirst)
	}
	if got := answer(SolveRequest{Topology: "torus:8x8", Policy: "TABLE", Comms: comms}); !reflect.DeepEqual(got, want) {
		t.Errorf("torus answer after eviction %+v, want %+v", got, want)
	}
}
