// Package workload generates the random communication sets of the
// Section 6 simulation study, plus synthetic application traffic patterns
// (pipelines, stencils, transposes, hotspots) used by the examples and
// wrapped into the internal/scenario source registry. All generators are
// deterministic given a seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/mesh"
)

// Generator draws communication sets on a fixed mesh.
type Generator struct {
	mesh *mesh.Mesh
	rng  *rand.Rand
	// pairsByLen caches, per Manhattan distance, every ordered core pair
	// at that distance; built lazily by TargetLength.
	pairsByLen map[int][][2]mesh.Coord
}

// New returns a generator over m seeded with seed.
func New(m *mesh.Mesh, seed int64) *Generator {
	return &Generator{mesh: m, rng: rand.New(rand.NewSource(seed))}
}

// Reseed restarts the generator's random stream at seed. The subsequent
// draws are identical to a fresh New(m, seed) generator while keeping the
// pair cache warm — the experiment engine reseeds one generator per worker
// instead of allocating one per trial.
func (g *Generator) Reseed(seed int64) { g.rng.Seed(seed) }

// rate draws a weight uniformly from [wmin, wmax] (Mb/s), the paper's
// weight distributions (e.g. "between 100 Mb/s and 1500 Mb/s").
func (g *Generator) rate(wmin, wmax float64) float64 {
	if wmax < wmin {
		panic(fmt.Sprintf("workload: wmax %g < wmin %g", wmax, wmin))
	}
	return wmin + g.rng.Float64()*(wmax-wmin)
}

// Uniform draws n communications with independently random source and sink
// cores (re-drawn until distinct) and weights uniform in [wmin, wmax] —
// the workload of Sections 6.1 and 6.2 ("random source and sink nodes").
func (g *Generator) Uniform(n int, wmin, wmax float64) comm.Set {
	return g.UniformInto(nil, n, wmin, wmax)
}

// UniformInto is Uniform drawing into dst's storage (grown as needed),
// so per-trial loops can reuse one buffer. The draws are identical to
// Uniform's.
func (g *Generator) UniformInto(dst comm.Set, n int, wmin, wmax float64) comm.Set {
	set := dst[:0]
	if cap(set) < n {
		set = make(comm.Set, 0, n)
	}
	for i := 0; i < n; i++ {
		var src, dst mesh.Coord
		for {
			src = g.randCoord()
			dst = g.randCoord()
			if src != dst {
				break
			}
		}
		set = append(set, comm.Comm{ID: i, Src: src, Dst: dst, Rate: g.rate(wmin, wmax)})
	}
	return set
}

// TargetLength draws n communications whose Manhattan length equals the
// target (the Section 6.3 workload: "we draw only communications whose
// length is around the target average length"). Pairs are drawn uniformly
// among all ordered pairs at exactly that distance. It panics if no pair
// of the mesh has the requested distance.
func (g *Generator) TargetLength(n int, wmin, wmax float64, length int) comm.Set {
	return g.TargetLengthInto(nil, n, wmin, wmax, length)
}

// TargetLengthInto is TargetLength drawing into dst's storage (grown as
// needed), reusing the per-distance pair cache across calls.
func (g *Generator) TargetLengthInto(dst comm.Set, n int, wmin, wmax float64, length int) comm.Set {
	pairs := g.pairsAt(length)
	if len(pairs) == 0 {
		panic(fmt.Sprintf("workload: no core pair at distance %d on %v", length, g.mesh))
	}
	set := dst[:0]
	if cap(set) < n {
		set = make(comm.Set, 0, n)
	}
	for i := 0; i < n; i++ {
		p := pairs[g.rng.Intn(len(pairs))]
		set = append(set, comm.Comm{ID: i, Src: p[0], Dst: p[1], Rate: g.rate(wmin, wmax)})
	}
	return set
}

func (g *Generator) randCoord() mesh.Coord {
	return mesh.Coord{U: g.rng.Intn(g.mesh.P()) + 1, V: g.rng.Intn(g.mesh.Q()) + 1}
}

func (g *Generator) pairsAt(length int) [][2]mesh.Coord {
	if g.pairsByLen == nil {
		g.pairsByLen = make(map[int][][2]mesh.Coord)
		cores := g.mesh.Cores()
		for _, a := range cores {
			for _, b := range cores {
				if a == b {
					continue
				}
				d := mesh.Manhattan(a, b)
				g.pairsByLen[d] = append(g.pairsByLen[d], [2]mesh.Coord{a, b})
			}
		}
	}
	return g.pairsByLen[length]
}
