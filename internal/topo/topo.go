// Package topo defines the topology abstraction the routing stack is
// built on. A Topology is a directed interconnect graph over the mesh
// package's coordinate and link types: a finite set of cores with dense
// integer indices, a set of unidirectional links with dense integer
// identifiers (enabling flat-slice load accounting), shortest-path
// distances, and a deterministic shortest-route builder.
//
// The 2-D mesh (*mesh.Mesh) is the canonical implementation and keeps
// its closed-form fast paths; subpackages add the wraparound torus
// (topo/torus) and the multiplicative circulant (topo/circulant), both
// routed by precompiled next-hop tables (internal/rtable.NextHops).
//
// The contract every implementation must honor:
//
//   - Cores carry mesh.Coord coordinates. CoordIndex/CoordAt form a
//     bijection between the core set and [0, NumCores()).
//   - LinkID maps every valid link into [0, LinkIDSpace()) injectively
//     and LinkByID inverts it; the space may be larger than NumLinks()
//     (identifiers of invalid links are never returned by LinkID).
//     Links() enumerates all valid links in ascending LinkID order.
//   - Distance(a, b) is the hop length of every route AppendRoute
//     builds from a to b, and AppendRoute is deterministic: the same
//     (src, dst) always yields the same link sequence.
//   - Carrier() exposes a plain *mesh.Mesh over the same core set so
//     mesh-bound workload generators and scenario sources keep working
//     on any topology.
//   - Spec() is a canonical identity string (parseable by Parse); two
//     topologies with equal Spec strings behave identically.
//
// Non-mesh families register themselves with Register from an init
// function, mirroring the solver registry: importing topo/torus or
// topo/circulant (or internal/scenario, which imports both) makes them
// resolvable by Parse.
package topo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/mesh"
)

// Topology is a directed interconnect over mesh coordinates. See the
// package comment for the full contract.
type Topology interface {
	// Name is the topology family name ("mesh", "torus", "circulant").
	Name() string
	// Spec is the canonical, Parse-able identity string, e.g.
	// "torus:8x8" or "circulant:27:1,3,9".
	Spec() string

	// NumCores returns the number of cores.
	NumCores() int
	// Contains reports whether c is a core of the topology.
	Contains(c mesh.Coord) bool
	// CoordIndex maps a core to its dense index in [0, NumCores());
	// panics if c is not a core.
	CoordIndex(c mesh.Coord) int
	// CoordAt inverts CoordIndex; panics if i is out of range.
	CoordAt(i int) mesh.Coord
	// Cores returns all cores in CoordIndex order.
	Cores() []mesh.Coord

	// NumLinks returns the number of unidirectional links.
	NumLinks() int
	// LinkIDSpace bounds the dense link identifier space.
	LinkIDSpace() int
	// ValidLink reports whether l is a link of the topology.
	ValidLink(l mesh.Link) bool
	// LinkID maps a valid link to its identifier; panics otherwise.
	LinkID(l mesh.Link) int
	// LinkByID inverts LinkID; panics if id is not a valid link's id.
	LinkByID(id int) mesh.Link
	// Links returns all links in ascending LinkID order.
	Links() []mesh.Link
	// Neighbors returns the destination cores of c's outgoing links.
	Neighbors(c mesh.Coord) []mesh.Coord

	// Distance returns the shortest-path hop count from a to b.
	Distance(a, b mesh.Coord) int
	// AppendRoute appends a deterministic shortest path from src to
	// dst onto buf and returns the extended slice; it appends exactly
	// Distance(src, dst) links and nothing when src == dst.
	AppendRoute(buf []mesh.Link, src, dst mesh.Coord) []mesh.Link

	// Carrier returns the coordinate-carrier grid: a plain mesh over
	// the same core set, for workload drawing and mesh-bound sources.
	Carrier() *mesh.Mesh
}

// The mesh is the canonical Topology.
var _ Topology = (*mesh.Mesh)(nil)

// Builder constructs a topology family from the argument part of a spec
// string: for "torus:8x8" the builder registered under "torus" receives
// "8x8".
type Builder func(arg string) (Topology, error)

var (
	regMu    sync.RWMutex
	families = map[string]Builder{}
)

// Register makes a topology family resolvable by Parse. The family name
// is case-insensitive. Registering a duplicate or empty name panics —
// families register from init functions, so a collision is a programming
// error.
func Register(family string, build Builder) {
	key := strings.ToLower(strings.TrimSpace(family))
	if key == "" || build == nil {
		panic("topo: Register with empty family or nil builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := families[key]; dup || key == "mesh" {
		panic(fmt.Sprintf("topo: duplicate topology family %q", family))
	}
	families[key] = build
}

// Families returns the registered family names in sorted order, with
// the built-in "mesh" included.
func Families() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(families)+1)
	out = append(out, "mesh")
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Parse resolves a topology spec string. The mesh family is built in:
// "mesh:PxQ" (and the bare "PxQ" shorthand used by scenario specs)
// yields a *mesh.Mesh. Any other "family:arg" form dispatches to the
// registered Builder for the family.
func Parse(spec string) (Topology, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return nil, fmt.Errorf("topo: empty topology spec")
	}
	family, arg := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		family, arg = s[:i], s[i+1:]
	} else if strings.ContainsRune(s, 'x') {
		// Bare "PxQ" is the historical mesh spelling.
		family, arg = "mesh", s
	}
	family = strings.ToLower(strings.TrimSpace(family))
	if family == "mesh" {
		p, q, err := ParseGrid(arg)
		if err != nil {
			return nil, err
		}
		return mesh.MustNew(p, q), nil
	}
	regMu.RLock()
	build, ok := families[family]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("topo: unknown topology family %q in %q (known: %s)",
			family, spec, strings.Join(Families(), ", "))
	}
	t, err := build(arg)
	if err != nil {
		return nil, fmt.Errorf("topo: %q: %w", spec, err)
	}
	return t, nil
}

// MaxCores caps the core count of any parsed topology (32×32; the
// largest committed platform is 16×16). Topology strings arrive in
// untrusted requests, and the routing tables grow with the square of the
// core count: a 200×200 torus would build 12.8 GB of them.
const MaxCores = 1024

// ParseGrid parses a "PxQ" grid argument with both dimensions >= 1 and
// at most MaxCores cores.
func ParseGrid(arg string) (p, q int, err error) {
	a, b, ok := strings.Cut(strings.ToLower(strings.TrimSpace(arg)), "x")
	if ok {
		p, err = strconv.Atoi(strings.TrimSpace(a))
		if err == nil {
			q, err = strconv.Atoi(strings.TrimSpace(b))
		}
	}
	if !ok || err != nil || p < 1 || q < 1 {
		return 0, 0, fmt.Errorf("topo: invalid grid spec %q (want PxQ, e.g. 8x8)", arg)
	}
	// Each factor is checked first, so the product cannot overflow.
	if p > MaxCores || q > MaxCores || p*q > MaxCores {
		return 0, 0, fmt.Errorf("topo: grid %q has more than %d cores", arg, MaxCores)
	}
	return p, q, nil
}
