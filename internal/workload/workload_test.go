package workload

import (
	"testing"

	"repro/internal/mesh"
)

func TestUniformBasics(t *testing.T) {
	m := mesh.MustNew(8, 8)
	g := New(m, 1)
	set := g.Uniform(100, 100, 1500)
	if len(set) != 100 {
		t.Fatalf("len = %d, want 100", len(set))
	}
	if err := set.Validate(m); err != nil {
		t.Fatalf("generated set invalid: %v", err)
	}
	for _, c := range set {
		if c.Rate < 100 || c.Rate > 1500 {
			t.Errorf("rate %g outside [100,1500]", c.Rate)
		}
		if c.Src == c.Dst {
			t.Errorf("degenerate pair %v", c)
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	m := mesh.MustNew(8, 8)
	a := New(m, 42).Uniform(50, 100, 2500)
	b := New(m, 42).Uniform(50, 100, 2500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := New(m, 43).Uniform(50, 100, 2500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sets")
	}
}

func TestTargetLengthExact(t *testing.T) {
	m := mesh.MustNew(8, 8)
	g := New(m, 7)
	for _, ell := range []int{1, 2, 5, 10, 14} {
		set := g.TargetLength(40, 200, 800, ell)
		if len(set) != 40 {
			t.Fatalf("len = %d", len(set))
		}
		for _, c := range set {
			if c.Length() != ell {
				t.Errorf("target %d: drew length %d (%v)", ell, c.Length(), c)
			}
		}
	}
}

func TestTargetLengthPanicsWhenImpossible(t *testing.T) {
	m := mesh.MustNew(2, 2)
	g := New(m, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("impossible length did not panic")
		}
	}()
	g.TargetLength(1, 1, 2, 99)
}

func TestPipeline(t *testing.T) {
	m := mesh.MustNew(4, 4)
	set, err := Pipeline(m, nil, mesh.Coord{U: 1, V: 1}, 10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 9 {
		t.Fatalf("pipeline edges = %d, want 9", len(set))
	}
	if err := set.Validate(m); err != nil {
		t.Fatal(err)
	}
	// Snake stays contiguous: every hop has Manhattan length 1.
	for _, c := range set {
		if c.Length() != 1 {
			t.Errorf("pipeline hop %v has length %d", c, c.Length())
		}
	}
	// Too long to fit.
	if _, err := Pipeline(m, nil, mesh.Coord{U: 1, V: 1}, 17, 500); err == nil {
		t.Error("oversized pipeline accepted")
	}
	// Bad start.
	if _, err := Pipeline(m, nil, mesh.Coord{U: 9, V: 1}, 2, 500); err == nil {
		t.Error("off-mesh start accepted")
	}
}

func TestStencil(t *testing.T) {
	m := mesh.MustNew(8, 8)
	box := mesh.Box{UMin: 2, UMax: 4, VMin: 2, VMax: 5}
	set, err := Stencil(m, nil, box, 300)
	if err != nil {
		t.Fatal(err)
	}
	// 3×4 block: horizontal edges 3·3 ×2 dirs + vertical 2·4 ×2 = 18+16.
	if want := 2*(3*3) + 2*(2*4); len(set) != want {
		t.Fatalf("stencil edges = %d, want %d", len(set), want)
	}
	if err := set.Validate(m); err != nil {
		t.Fatal(err)
	}
	if _, err := Stencil(m, nil, mesh.Box{UMin: 0, UMax: 2, VMin: 1, VMax: 2}, 1); err == nil {
		t.Error("out-of-mesh stencil accepted")
	}
}

func TestTranspose(t *testing.T) {
	m := mesh.MustNew(8, 8)
	box := mesh.Box{UMin: 1, UMax: 4, VMin: 1, VMax: 4}
	set, err := Transpose(m, nil, box, 200)
	if err != nil {
		t.Fatal(err)
	}
	// 16 cores, 4 on the diagonal excluded.
	if len(set) != 12 {
		t.Fatalf("transpose comms = %d, want 12", len(set))
	}
	for _, c := range set {
		if c.Src.U-1 != c.Dst.V-1 || c.Src.V != c.Dst.U {
			t.Errorf("not a transpose pair: %v", c)
		}
	}
	if _, err := Transpose(m, nil, mesh.Box{UMin: 1, UMax: 2, VMin: 1, VMax: 3}, 1); err == nil {
		t.Error("non-square transpose accepted")
	}
}

func TestHotspot(t *testing.T) {
	m := mesh.MustNew(8, 8)
	sink := mesh.Coord{U: 4, V: 4}
	sources := []mesh.Coord{{U: 1, V: 1}, {U: 8, V: 8}, {U: 4, V: 4}} // one equals sink
	set, err := Hotspot(m, nil, sources, sink, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("hotspot comms = %d, want 2 (sink self-send skipped)", len(set))
	}
	for _, c := range set {
		if c.Dst != sink {
			t.Errorf("comm %v does not target the hotspot", c)
		}
	}
}

func TestCompositionUniqueIDs(t *testing.T) {
	m := mesh.MustNew(8, 8)
	set, err := Pipeline(m, nil, mesh.Coord{U: 1, V: 1}, 6, 100)
	if err != nil {
		t.Fatal(err)
	}
	set, err = Stencil(m, set, mesh.Box{UMin: 5, UMax: 7, VMin: 5, VMax: 7}, 100)
	if err != nil {
		t.Fatal(err)
	}
	set, err = Hotspot(m, set, []mesh.Coord{{U: 8, V: 1}, {U: 1, V: 8}}, mesh.Coord{U: 8, V: 8}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(m); err != nil {
		t.Fatalf("composed set invalid: %v", err)
	}
}
