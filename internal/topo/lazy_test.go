package topo_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/mesh"
	"repro/internal/topo"
)

// The torus and circulant next-hop tables compile on first use. Goroutines
// that route concurrently on one freshly parsed value must all see the
// same complete table (the race CI job runs this under -race), and it
// must route exactly like a value that compiled its table serially.
func TestConcurrentFirstRoute(t *testing.T) {
	for _, spec := range []string{"torus:8x8", "circulant:27:1,3,9"} {
		ref, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := routesOf(ref)
		shared, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 4
		got := make([]string, workers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = routesOf(shared)
			}()
		}
		wg.Wait()
		for w, g := range got {
			if g != want {
				t.Fatalf("%s: goroutine %d routed differently from a serially compiled value", spec, w)
			}
		}
	}
}

// routesOf renders every core pair's distance and route.
func routesOf(tp topo.Topology) string {
	var buf []mesh.Link
	var out strings.Builder
	for _, a := range tp.Cores() {
		for _, b := range tp.Cores() {
			buf = tp.AppendRoute(buf[:0], a, b)
			fmt.Fprint(&out, tp.Distance(a, b), buf)
		}
	}
	return out.String()
}
