// Differential tests pinning the topology abstraction to the direct
// mesh code paths: a mesh addressed through the Topology interface must
// behave byte-identically to the same mesh addressed through its
// closed-form methods, across every registered routing policy, over
// multiple seeds, and under -race.
package repro_test

import (
	"hash/fnv"
	"math"
	"sort"
	"testing"

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
// small mesh over several seeds and re-reads each routing through the
// Topology spelling (Topo set, Mesh nil). Loads, validation and power
// evaluation must be bit-identical between the two spellings — the
// interface seam may not perturb a single bit of mesh arithmetic.
func TestMeshViaTopologyDifferential(t *testing.T) {
	m := mesh.MustNew(4, 4)
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
			in := solve.Instance{Mesh: m, Model: model, Comms: set}
			r, err := s.Route(in, solve.Options{})
			if err != nil {
				continue // infeasible seeds are not this test's concern
			}
			routed++
			direct := route.Routing{Mesh: m, Flows: r.Flows}
			viaTopo := route.Routing{Topo: m, Flows: r.Flows}

			dl := direct.LoadsInto(nil)
			vl := viaTopo.LoadsInto(nil)
			if len(dl) != len(vl) {
				t.Fatalf("%s seed %d: load vector lengths differ: %d vs %d", name, seed, len(dl), len(vl))
			}
			for i := range dl {
				if dl[i] != vl[i] {
					t.Errorf("%s seed %d: link %d load differs through Topology: %g vs %g",
						name, seed, i, dl[i], vl[i])
				}
			}
			if loadsHash(dl) != loadsHash(vl) {
				t.Errorf("%s seed %d: load hashes diverge between spellings", name, seed)
			}
			if err := direct.Validate(set, 0); err != nil {
				t.Errorf("%s seed %d: direct mesh validation failed: %v", name, seed, err)
			}
			if err := viaTopo.Validate(set, 0); err != nil {
				t.Errorf("%s seed %d: via-Topology validation failed: %v", name, seed, err)
			}
			dres, vres := route.Evaluate(direct, model), route.Evaluate(viaTopo, model)
			if dres.Feasible != vres.Feasible ||
				dres.Power.Static != vres.Power.Static ||
				dres.Power.Dynamic != vres.Power.Dynamic ||
				dres.Power.ActiveLinks != vres.Power.ActiveLinks {
				t.Errorf("%s seed %d: evaluation differs through Topology: %+v vs %+v",
					name, seed, dres.Power, vres.Power)
			}
		}
	}
	if routed == 0 {
		t.Fatal("no policy produced a routing on any seed")
	}
}

// TestTableEqualsXYOnMesh pins TABLE's documented mesh behavior: on a
// mesh instance it is exactly the XY routing, path for path, and the
// returned routing stays on the devirtualized Mesh field.
func TestTableEqualsXYOnMesh(t *testing.T) {
	m := mesh.MustNew(6, 5)
	model := power.KimHorowitz()
	for seed := int64(1); seed <= 5; seed++ {
		set := workload.New(m, seed).Uniform(10, 100, 900)
		r, err := tabroute.Solver{}.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Mesh == nil || r.Topo != nil {
			t.Fatalf("seed %d: TABLE on a mesh must return a Mesh routing, got Mesh=%v Topo=%v",
				seed, r.Mesh, r.Topo)
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
