// Service-level benchmark helpers: the sweep workload and request helper
// TestEmitBenchJSON loads the routed endpoints with, and the
// pooled-multipath allocation guard that bounds the per-solve allocations
// of the s-MP policies the fragmentation pooling is responsible for.
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/solve"
)

// maxMultipathAllocsPerSolve bounds the warmed-workspace allocation count
// of the multipath policies: fragmentation writes into pooled buffers, so
// a 2MP/4MP solve costs the splitter's handful of slice headers, not one
// allocation per communication (was 143 allocs/op before pooling).
const maxMultipathAllocsPerSolve = 24

// TestMultipathPooledAllocs is the pooling guard for the s-MP solvers.
func TestMultipathPooledAllocs(t *testing.T) {
	in := solverBenchInstance()
	for _, name := range []string{"2MP", "4MP"} {
		s, err := solve.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ws := route.NewWorkspace()
		opts := solve.Options{Workspace: ws}
		if _, err := s.Route(in, opts); err != nil { // warm the pools
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := s.Route(in, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got > maxMultipathAllocsPerSolve {
			t.Errorf("%s allocates %.0f times per warmed solve, guard %d",
				name, got, maxMultipathAllocsPerSolve)
		}
	}
}

// serveBenchSpec is the sweep workload of the serve benchmark; the seed
// varies per request in the cold run so every submission is a distinct
// cache miss.
func serveBenchSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		ID:       "serve-bench",
		Source:   "uniform",
		Params:   scenario.Params{WMin: 100, WMax: 1500},
		Axis:     scenario.AxisN,
		Points:   []float64{5, 10},
		Trials:   10,
		Seed:     seed,
		Policies: []string{"XY", "XYI", "PR"},
	}
}

// postBytes issues one POST and drains the response, failing on non-200.
func postBytes(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return nil
}
