package rtable

import (
	"fmt"
	"sync"

	"repro/internal/mesh"
)

// Graph is the minimal topology view CompileNextHops needs: dense core
// indices and dense link identifiers over a directed graph. It is a
// strict subset of topo.Topology, declared here so rtable does not
// depend on the topo package (route — which rtable imports — does).
type Graph interface {
	NumCores() int
	CoordAt(i int) mesh.Coord
	CoordIndex(c mesh.Coord) int
	LinkIDSpace() int
	LinkID(l mesh.Link) int
	LinkByID(id int) mesh.Link
	Links() []mesh.Link
}

// NextHops is a precompiled all-pairs forwarding table: for every
// (node, destination) core pair it stores the dense link id of the
// first hop of one deterministic shortest path, plus the shortest-path
// hop distance. Non-mesh topologies (torus, circulant) route with one
// of these tables — the table-based deployment mode generalized from
// per-flow tables to per-destination tables.
//
// Determinism: ties between equal-length paths are broken toward the
// smallest outgoing link id at every node, so the compiled routes are a
// pure function of the graph.
type NextHops struct {
	n     int     // number of cores
	space int     // link id space of the compiled graph
	next  []int32 // next[dst*n+node] = link id of first hop node->dst, -1 at node==dst
	dist  []int32 // dist[dst*n+node] = hop distance node->dst, -1 if unreachable
}

// LazyNextHops holds a graph's table, compiled on first use, so that
// building a platform (request admission, spec hashing) never pays for
// routing on it. It is safe for concurrent use; the zero value is ready.
type LazyNextHops struct {
	once sync.Once
	t    *NextHops
}

// Of returns g's table, compiling it on the first call. g must be
// connected, as the torus and circulant constructors guarantee; Of
// panics otherwise.
func (l *LazyNextHops) Of(g Graph) *NextHops {
	l.once.Do(func() {
		t, err := CompileNextHops(g)
		if err != nil {
			panic(err)
		}
		l.t = t
	})
	return l.t
}

// CompileNextHops builds the all-pairs table with one reverse BFS per
// destination: O(NumCores · (NumCores + NumLinks)) time, two int32
// slices of NumCores² entries. It returns an error if some core cannot
// reach some other core.
func CompileNextHops(g Graph) (*NextHops, error) {
	n := g.NumCores()
	t := &NextHops{
		n:     n,
		space: g.LinkIDSpace(),
		next:  make([]int32, n*n),
		dist:  make([]int32, n*n),
	}

	// Per-node adjacency in both directions, each node's link list in
	// ascending link id order (Links() enumerates ids in ascending
	// order, so appending preserves it). The reverse BFS over in-links
	// computes distances; the out-link scan picks first hops.
	links := g.Links()
	type adj struct {
		off  []int32 // off[i]..off[i+1] bounds node i's links
		link []int32 // link ids
	}
	build := func(nodeOf func(mesh.Link) mesh.Coord) adj {
		deg := make([]int32, n)
		for _, l := range links {
			deg[g.CoordIndex(nodeOf(l))]++
		}
		off := make([]int32, n+1)
		for i := 0; i < n; i++ {
			off[i+1] = off[i] + deg[i]
		}
		ids := make([]int32, len(links))
		fill := make([]int32, n)
		for _, l := range links {
			at := g.CoordIndex(nodeOf(l))
			ids[off[at]+fill[at]] = int32(g.LinkID(l))
			fill[at]++
		}
		return adj{off: off, link: ids}
	}
	in := build(func(l mesh.Link) mesh.Coord { return l.To })
	out := build(func(l mesh.Link) mesh.Coord { return l.From })

	// endpoint[id] caches CoordIndex of each link's endpoints so the
	// per-destination loops stay free of interface calls.
	from := make([]int32, len(links))
	to := make([]int32, len(links))
	byID := make(map[int32]int, len(links))
	for i, l := range links {
		id := int32(g.LinkID(l))
		byID[id] = i
		from[i] = int32(g.CoordIndex(l.From))
		to[i] = int32(g.CoordIndex(l.To))
	}

	queue := make([]int32, 0, n)
	for dst := 0; dst < n; dst++ {
		next := t.next[dst*n : (dst+1)*n]
		dist := t.dist[dst*n : (dst+1)*n]
		for i := range next {
			next[i] = -1
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], int32(dst))
		for head := 0; head < len(queue); head++ {
			node := queue[head]
			d := dist[node]
			for _, id := range in.link[in.off[node]:in.off[node+1]] {
				pred := from[byID[id]]
				if dist[pred] < 0 {
					dist[pred] = d + 1
					queue = append(queue, pred)
				}
			}
		}
		for node := 0; node < n; node++ {
			if dist[node] < 0 {
				return nil, fmt.Errorf("rtable: core %v cannot reach %v",
					g.CoordAt(node), g.CoordAt(dst))
			}
			if node == dst {
				continue
			}
			// Smallest-id out-link that makes progress wins the tie.
			for _, id := range out.link[out.off[node]:out.off[node+1]] {
				if dist[to[byID[id]]] == dist[node]-1 {
					next[node] = id
					break
				}
			}
		}
	}
	return t, nil
}

// Dist returns the shortest-path hop distance between two core indices.
func (t *NextHops) Dist(srcIdx, dstIdx int) int {
	return int(t.dist[dstIdx*t.n+srcIdx])
}

// NextLink returns the link id of the first hop from nodeIdx toward
// dstIdx, or -1 when nodeIdx == dstIdx.
func (t *NextHops) NextLink(nodeIdx, dstIdx int) int {
	return int(t.next[dstIdx*t.n+nodeIdx])
}

// AppendRoute appends the table's shortest path from src to dst onto
// buf, resolving hops through g (which must be the graph the table was
// compiled from).
func (t *NextHops) AppendRoute(buf []mesh.Link, g Graph, src, dst mesh.Coord) []mesh.Link {
	node, dstIdx := g.CoordIndex(src), g.CoordIndex(dst)
	for node != dstIdx {
		l := g.LinkByID(t.NextLink(node, dstIdx))
		buf = append(buf, l)
		node = g.CoordIndex(l.To)
	}
	return buf
}
