package heur

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// FuzzMoveOff drives the XYI path modification with arbitrary two-bend
// paths and hop selections: the result must always be a valid Manhattan
// path avoiding the targeted link, or a clean refusal.
func FuzzMoveOff(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(5), uint8(6), uint8(2), uint8(3))
	f.Add(uint8(8), uint8(8), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(7), uint8(3), uint8(1), uint8(1), uint8(4))
	m := mesh.MustNew(8, 8)
	f.Fuzz(func(t *testing.T, su, sv, du, dv, cand, hop uint8) {
		src := mesh.Coord{U: int(su%8) + 1, V: int(sv%8) + 1}
		dst := mesh.Coord{U: int(du%8) + 1, V: int(dv%8) + 1}
		if src == dst {
			return
		}
		paths := TwoBendPaths(src, dst)
		p := paths[int(cand)%len(paths)]
		l := p[int(hop)%len(p)]
		np, ok := moveOff(p, l)
		if !ok {
			return
		}
		if err := np.Validate(m, src, dst); err != nil {
			t.Fatalf("moveOff produced invalid path: %v", err)
		}
		for _, nl := range np {
			if nl == l {
				t.Fatalf("moveOff kept the avoided link %v", l)
			}
		}
	})
}

// FuzzTwoBendPaths checks the enumeration invariants for arbitrary
// endpoint pairs.
func FuzzTwoBendPaths(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(7), uint8(7))
	f.Add(uint8(2), uint8(5), uint8(2), uint8(1))
	m := mesh.MustNew(8, 8)
	f.Fuzz(func(t *testing.T, su, sv, du, dv uint8) {
		src := mesh.Coord{U: int(su%8) + 1, V: int(sv%8) + 1}
		dst := mesh.Coord{U: int(du%8) + 1, V: int(dv%8) + 1}
		if src == dst {
			return
		}
		for _, p := range TwoBendPaths(src, dst) {
			if err := p.Validate(m, src, dst); err != nil {
				t.Fatalf("invalid two-bend path %v: %v", p, err)
			}
			if p.Bends() > 2 {
				t.Fatalf("path with %d bends", p.Bends())
			}
		}
	})
}

// FuzzPR routes seeded random instances on arbitrary mesh shapes (up to
// 12x12, up to 150 communications) with both share modes: the routing
// must be a valid single-path routing of the set and equal the reference
// Path-Remover's.
func FuzzPR(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(5), int64(1), false)
	f.Add(uint8(8), uint8(8), uint8(60), int64(7), true)
	f.Add(uint8(6), uint8(10), uint8(150), int64(3), false)
	f.Add(uint8(1), uint8(12), uint8(20), int64(5), true)
	model := power.KimHorowitz()
	ws := route.NewWorkspace()
	f.Fuzz(func(t *testing.T, p, q, n uint8, seed int64, static bool) {
		m := mesh.MustNew(int(p%12)+1, int(q%12)+1)
		if m.NumCores() < 2 {
			return
		}
		set := randomSet(m, seed, int(n%151), 100, 2500)
		r, err := PR{StaticShares: static}.RouteInto(Instance{Mesh: m, Model: model, Comms: set}, ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(set, 1); err != nil {
			t.Fatalf("invalid routing: %v", err)
		}
		want, err := refPR(m, set, static, nil)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if err := samePaths(r, want); err != nil {
			t.Fatalf("differs from the reference: %v", err)
		}
	})
}
