// Differential tests pinning the topology abstraction to the direct
// mesh code paths: a mesh addressed through the Topology interface must
// behave byte-identically to the same mesh addressed through its
// closed-form methods, across every registered routing policy, over
// multiple seeds, and under -race.
package repro_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/tabroute"
	"repro/internal/topo"
	"repro/internal/workload"
)

// loadsHash is an order-sensitive FNV hash over the exact float64 bits
// of a load vector — two vectors hash equal only when they are
// bit-for-bit identical.
func loadsHash(loads []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, l := range loads {
		bits := math.Float64bits(l)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestMeshViaTopologyDifferential routes every registered policy on a
// small mesh over several seeds under both spellings of the platform
// (Instance.Mesh and Instance.Topo holding the same mesh). Routings,
// loads, validation and power evaluation must be bit-identical between
// the two — the interface seam may not perturb a single bit of mesh
// arithmetic. On a torus, every policy without topology support must
// return an error, never panic, and every policy must reject a
// coordinate outside the platform with the instance's validation error.
func TestMeshViaTopologyDifferential(t *testing.T) {
	m := mesh.MustNew(4, 4)
	tor, err := topo.Parse("torus:4x4")
	if err != nil {
		t.Fatal(err)
	}
	model := power.KimHorowitz()
	policies := solve.Policies()
	sort.Strings(policies)
	if len(policies) == 0 {
		t.Fatal("no registered policies")
	}
	routed := 0
	for _, name := range policies {
		s, err := solve.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 4; seed++ {
			set := workload.New(m, seed).Uniform(6, 100, 900)
			direct, err := s.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
			viaTopo, errTopo := s.Route(solve.Instance{Topo: m, Model: model, Comms: set}, solve.Options{})
			if (err == nil) != (errTopo == nil) {
				t.Fatalf("%s seed %d: errors differ between spellings: %v vs %v", name, seed, err, errTopo)
			}
			if err != nil {
				continue // infeasible seeds are not this test's concern
			}
			routed++
			if direct.Topo != topo.Topology(m) || viaTopo.Topo != topo.Topology(m) {
				t.Fatalf("%s seed %d: routings not on the instance's mesh: %v, %v", name, seed, direct.Topo, viaTopo.Topo)
			}
			if !reflect.DeepEqual(direct.Flows, viaTopo.Flows) {
				t.Errorf("%s seed %d: routing differs between spellings:\n%v\n%v", name, seed, direct.Flows, viaTopo.Flows)
			}
			dl, vl := direct.LoadsInto(nil), viaTopo.LoadsInto(nil)
			if loadsHash(dl) != loadsHash(vl) {
				t.Errorf("%s seed %d: load hashes diverge between spellings", name, seed)
			}
			if err := direct.Validate(set, 0); err != nil {
				t.Errorf("%s seed %d: validation failed: %v", name, seed, err)
			}
			dres, vres := route.Evaluate(direct, model), route.Evaluate(viaTopo, model)
			if dres.Feasible != vres.Feasible || dres.Power != vres.Power {
				t.Errorf("%s seed %d: evaluation differs between spellings: %+v vs %+v",
					name, seed, dres.Power, vres.Power)
			}
		}

		set := workload.New(tor.Carrier(), 1).Uniform(6, 100, 900)
		if !solve.Supports(s, tor) {
			for _, ws := range []*route.Workspace{nil, route.NewWorkspace()} {
				_, err := routeNoPanic(t, s, solve.Instance{Topo: tor, Model: model, Comms: set}, ws)
				if err == nil || !strings.Contains(err.Error(), tor.Spec()) {
					t.Errorf("%s on %s: err = %v, want an error naming the platform", name, tor.Spec(), err)
				}
			}
		}
		outside := append(comm.Set{{ID: 99, Src: mesh.Coord{U: 0, V: 0}, Dst: mesh.Coord{U: 1, V: 1}, Rate: 100}}, set...)
		want := comm.Set(outside).ValidateOn(tor)
		for _, ws := range []*route.Workspace{nil, route.NewWorkspace()} {
			if _, err := routeNoPanic(t, s, solve.Instance{Topo: tor, Model: model, Comms: outside}, ws); err == nil || err.Error() != want.Error() {
				t.Errorf("%s on %s with an outside coordinate: err = %v, want %v", name, tor.Spec(), err, want)
			}
		}
	}
	if routed == 0 {
		t.Fatal("no policy produced a routing on any seed")
	}
}

// routeNoPanic routes in with s, reporting a panic as a test failure.
func routeNoPanic(t *testing.T, s solve.Solver, in solve.Instance, ws *route.Workspace) (r route.Routing, err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s on %s panicked: %v", s.Name(), in.Topology().Spec(), p)
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return s.Route(in, solve.Options{Workspace: ws})
}

// TestTableEqualsXYOnMesh pins TABLE's documented mesh behavior: on a
// mesh instance it is exactly the XY routing, path for path, on the
// instance's mesh.
func TestTableEqualsXYOnMesh(t *testing.T) {
	m := mesh.MustNew(6, 5)
	model := power.KimHorowitz()
	for seed := int64(1); seed <= 5; seed++ {
		set := workload.New(m, seed).Uniform(10, 100, 900)
		r, err := tabroute.Solver{}.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Topo != topo.Topology(m) {
			t.Fatalf("seed %d: TABLE on a mesh must return a routing on that mesh, got %v", seed, r.Topo)
		}
		if len(r.Flows) != len(set) {
			t.Fatalf("seed %d: %d flows for %d communications", seed, len(r.Flows), len(set))
		}
		for i, f := range r.Flows {
			want := route.XY(f.Comm.Src, f.Comm.Dst)
			if len(f.Path) != len(want) {
				t.Fatalf("seed %d flow %d: TABLE path length %d, XY %d", seed, i, len(f.Path), len(want))
			}
			for h := range want {
				if f.Path[h] != want[h] {
					t.Errorf("seed %d flow %d hop %d: TABLE %v differs from XY %v",
						seed, i, h, f.Path[h], want[h])
				}
			}
		}
	}
}

// TestMeshTopologyInterfaceIdentity drives every Topology method on a
// mesh through the interface and checks it against the closed-form mesh
// call — the fast paths and the generic seam must be the same function.
func TestMeshTopologyInterfaceIdentity(t *testing.T) {
	m := mesh.MustNew(5, 7)
	for _, spec := range []string{"mesh:5x7", "5x7"} {
		parsed, err := topo.Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		pm, ok := parsed.(*mesh.Mesh)
		if !ok {
			t.Fatalf("Parse(%q) returned %T, want *mesh.Mesh", spec, parsed)
		}
		if pm.Spec() != m.Spec() {
			t.Fatalf("Parse(%q).Spec() = %q, want %q", spec, pm.Spec(), m.Spec())
		}
	}
	var tp topo.Topology = m
	if tp.NumCores() != m.NumCores() || tp.NumLinks() != m.NumLinks() || tp.LinkIDSpace() != m.LinkIDSpace() {
		t.Fatal("interface core/link counts differ from the mesh's")
	}
	for i := 0; i < tp.NumCores(); i++ {
		c := tp.CoordAt(i)
		if !tp.Contains(c) || tp.CoordIndex(c) != i {
			t.Fatalf("CoordIndex/CoordAt bijection broken at %d (%v)", i, c)
		}
	}
	links := tp.Links()
	if len(links) != tp.NumLinks() {
		t.Fatalf("Links() returned %d links, want %d", len(links), tp.NumLinks())
	}
	prev := -1
	for _, l := range links {
		id := tp.LinkID(l)
		if id != m.LinkID(l) {
			t.Fatalf("interface LinkID(%v)=%d differs from mesh %d", l, id, m.LinkID(l))
		}
		if id <= prev {
			t.Fatalf("Links() not in ascending id order at %v (id %d after %d)", l, id, prev)
		}
		if tp.LinkByID(id) != l {
			t.Fatalf("LinkByID(%d)=%v, want %v", id, tp.LinkByID(id), l)
		}
		prev = id
	}
	for i := 0; i < tp.NumCores(); i++ {
		for j := 0; j < tp.NumCores(); j++ {
			a, b := tp.CoordAt(i), tp.CoordAt(j)
			if d, want := tp.Distance(a, b), mesh.Manhattan(a, b); d != want {
				t.Fatalf("Distance(%v,%v)=%d, want Manhattan %d", a, b, d, want)
			}
			got := route.Path(tp.AppendRoute(nil, a, b))
			want := route.XY(a, b)
			if len(got) != len(want) {
				t.Fatalf("AppendRoute(%v,%v) length %d, want XY %d", a, b, len(got), len(want))
			}
			for h := range want {
				if got[h] != want[h] {
					t.Fatalf("AppendRoute(%v,%v) hop %d: %v, want XY %v", a, b, h, got[h], want[h])
				}
			}
		}
	}
	if tp.Carrier() != m {
		t.Fatal("a mesh's Carrier must be itself")
	}
}
