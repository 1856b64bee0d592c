// Package circulant implements circulant graphs C(N; s1,…,sk) as a
// topo.Topology — in particular the multiplicative circulants
// C(N; 1, k, k², …) that Shchegoleva et al. (arXiv 1902.03314) propose
// as NoC topologies: ring-like regular graphs whose chord generators
// shrink the diameter to O(log N) while keeping constant degree 2k.
//
// Cores are the ring positions 0..N-1 carried as mesh coordinates
// C(1, i+1) on a 1×N carrier mesh, so every mesh-bound workload
// generator and scenario source works unchanged. Each generator s
// contributes two unidirectional links per node, i → i+s and i → i−s
// (mod N); the dense link id is (2·gen + sign)·N + i with space 2·k·N,
// every identifier valid. Routes come from an rtable.NextHops table,
// compiled on the first Distance or AppendRoute, with smallest-link-id
// tie-breaks.
//
// Importing this package registers the "circulant" family with
// topo.Parse under the spec form "circulant:N:s1,s2,…".
package circulant

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mesh"
	"repro/internal/rtable"
	"repro/internal/topo"
)

func init() {
	topo.Register("circulant", func(arg string) (topo.Topology, error) {
		nStr, gensStr, ok := strings.Cut(arg, ":")
		if !ok {
			return nil, fmt.Errorf("circulant: spec %q wants N:s1,s2,...", arg)
		}
		n, err := strconv.Atoi(strings.TrimSpace(nStr))
		if err != nil {
			return nil, fmt.Errorf("circulant: invalid node count %q", nStr)
		}
		var gens []int
		for _, f := range strings.Split(gensStr, ",") {
			s, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("circulant: invalid generator %q", f)
			}
			gens = append(gens, s)
		}
		return New(n, gens)
	})
}

// Circulant is the circulant graph C(N; gens). Construct with New.
type Circulant struct {
	n       int
	gens    []int // sorted ascending, distinct, each in [1, N/2)
	carrier *mesh.Mesh
	hops    rtable.LazyNextHops
}

// New returns C(n; gens). It requires 5 <= n <= topo.MaxCores, at least
// one generator, every generator distinct in [1, n/2) — the strict upper
// bound keeps i+s and i−s distinct, so the link id mapping stays a
// bijection — and a connected graph, which C(n; gens) is exactly when
// gcd(n, s1, …, sk) = 1.
func New(n int, gens []int) (*Circulant, error) {
	if n < 5 || n > topo.MaxCores {
		return nil, fmt.Errorf("circulant: node count %d out of range [5, %d]", n, topo.MaxCores)
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("circulant: no generators")
	}
	sorted := append([]int(nil), gens...)
	sort.Ints(sorted)
	for i, s := range sorted {
		if 2*s >= n || s < 1 {
			return nil, fmt.Errorf("circulant: generator %d out of range [1, %d) for N=%d", s, (n+1)/2, n)
		}
		if i > 0 && sorted[i-1] == s {
			return nil, fmt.Errorf("circulant: duplicate generator %d", s)
		}
	}
	g := n
	for _, s := range sorted {
		g = gcd(g, s)
	}
	if g != 1 {
		return nil, fmt.Errorf("circulant: C(%d; %v) is disconnected: gcd of N and the generators is %d", n, sorted, g)
	}
	return &Circulant{n: n, gens: sorted, carrier: mesh.MustNew(1, n)}, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Name returns "circulant".
func (c *Circulant) Name() string { return "circulant" }

// Spec returns the canonical spec string with generators in ascending
// order, e.g. "circulant:27:1,3,9".
func (c *Circulant) Spec() string {
	parts := make([]string, len(c.gens))
	for i, s := range c.gens {
		parts[i] = strconv.Itoa(s)
	}
	return fmt.Sprintf("circulant:%d:%s", c.n, strings.Join(parts, ","))
}

// String describes the graph in the C(N; s1,...,sk) notation.
func (c *Circulant) String() string {
	return fmt.Sprintf("C(%d; %v)", c.n, c.gens)
}

// NumCores returns N.
func (c *Circulant) NumCores() int { return c.n }

// NumLinks returns 2·k·N: every generator contributes a forward and a
// backward link at every node.
func (c *Circulant) NumLinks() int { return 2 * len(c.gens) * c.n }

// LinkIDSpace equals NumLinks; every identifier is a valid link.
func (c *Circulant) LinkIDSpace() int { return 2 * len(c.gens) * c.n }

// Contains reports whether the coordinate is a ring position C(1, i+1).
func (c *Circulant) Contains(co mesh.Coord) bool { return c.carrier.Contains(co) }

// CoordIndex maps C(1, i+1) to the ring position i.
func (c *Circulant) CoordIndex(co mesh.Coord) int { return c.carrier.CoordIndex(co) }

// CoordAt inverts CoordIndex.
func (c *Circulant) CoordAt(i int) mesh.Coord { return c.carrier.CoordAt(i) }

// Cores returns all ring positions in order.
func (c *Circulant) Cores() []mesh.Coord { return c.carrier.Cores() }

// Carrier returns the 1×N mesh over the ring positions.
func (c *Circulant) Carrier() *mesh.Mesh { return c.carrier }

// at returns the coordinate of ring position i (taken mod N).
func (c *Circulant) at(i int) mesh.Coord {
	i = ((i % c.n) + c.n) % c.n
	return mesh.Coord{U: 1, V: i + 1}
}

// linkOf decomposes a link into (generator index, sign) where sign 0 is
// the forward chord i → i+s and sign 1 the backward chord i → i−s.
func (c *Circulant) linkOf(l mesh.Link) (gen, sign int, ok bool) {
	if !c.Contains(l.From) || !c.Contains(l.To) {
		return 0, 0, false
	}
	d := (((l.To.V - l.From.V) % c.n) + c.n) % c.n
	for g, s := range c.gens {
		switch d {
		case s:
			return g, 0, true
		case c.n - s:
			return g, 1, true
		}
	}
	return 0, 0, false
}

// ValidLink reports whether l is a chord of the graph.
func (c *Circulant) ValidLink(l mesh.Link) bool {
	_, _, ok := c.linkOf(l)
	return ok
}

// LinkID maps a valid link to (2·gen+sign)·N + from; it panics on an
// invalid link, like mesh.LinkID.
func (c *Circulant) LinkID(l mesh.Link) int {
	gen, sign, ok := c.linkOf(l)
	if !ok {
		panic(fmt.Sprintf("circulant: invalid link %v on %v", l, c))
	}
	return (2*gen+sign)*c.n + (l.From.V - 1)
}

// LinkByID inverts LinkID.
func (c *Circulant) LinkByID(id int) mesh.Link {
	if id < 0 || id >= c.LinkIDSpace() {
		panic(fmt.Sprintf("circulant: link id %d out of range", id))
	}
	gen, rest := id/(2*c.n), id%(2*c.n)
	sign, i := rest/c.n, rest%c.n
	s := c.gens[gen]
	if sign == 1 {
		s = -s
	}
	return mesh.Link{From: c.at(i), To: c.at(i + s)}
}

// Links returns all 2·k·N chords in ascending LinkID order.
func (c *Circulant) Links() []mesh.Link {
	out := make([]mesh.Link, 0, c.NumLinks())
	for id := 0; id < c.LinkIDSpace(); id++ {
		out = append(out, c.LinkByID(id))
	}
	return out
}

// Neighbors returns the 2k chord endpoints of co in generator order,
// forward before backward.
func (c *Circulant) Neighbors(co mesh.Coord) []mesh.Coord {
	i := c.CoordIndex(co)
	out := make([]mesh.Coord, 0, 2*len(c.gens))
	for _, s := range c.gens {
		out = append(out, c.at(i+s), c.at(i-s))
	}
	return out
}

// Distance returns the shortest chord-hop count, read from the
// compiled table.
func (c *Circulant) Distance(a, b mesh.Coord) int {
	return c.hops.Of(c).Dist(c.CoordIndex(a), c.CoordIndex(b))
}

// AppendRoute appends the table's deterministic shortest path from src
// to dst onto buf.
func (c *Circulant) AppendRoute(buf []mesh.Link, src, dst mesh.Coord) []mesh.Link {
	return c.hops.Of(c).AppendRoute(buf, c, src, dst)
}

var _ topo.Topology = (*Circulant)(nil)
