package mesh

import (
	"testing"
	"testing/quick"
)

func TestNewRejectsInvalidDims(t *testing.T) {
	for _, tc := range [][2]int{{0, 5}, {5, 0}, {-1, 3}, {0, 0}} {
		if _, err := New(tc[0], tc[1]); err == nil {
			t.Errorf("New(%d,%d): expected error", tc[0], tc[1])
		}
	}
	if _, err := New(1, 1); err != nil {
		t.Fatalf("New(1,1): %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0,0) did not panic")
		}
	}()
	MustNew(0, 0)
}

func TestNumLinksFormula(t *testing.T) {
	for p := 1; p <= 6; p++ {
		for q := 1; q <= 6; q++ {
			m := MustNew(p, q)
			want := 2 * (p*(q-1) + (p-1)*q)
			if got := m.NumLinks(); got != want {
				t.Errorf("%v NumLinks = %d, want %d", m, got, want)
			}
			if got := len(m.Links()); got != want {
				t.Errorf("%v len(Links()) = %d, want %d", m, got, want)
			}
		}
	}
}

func TestLinkIDRoundTrip(t *testing.T) {
	m := MustNew(5, 7)
	seen := make(map[int]bool)
	for _, l := range m.Links() {
		id := m.LinkID(l)
		if id < 0 || id >= m.LinkIDSpace() {
			t.Fatalf("LinkID(%v) = %d outside [0,%d)", l, id, m.LinkIDSpace())
		}
		if seen[id] {
			t.Fatalf("duplicate link id %d for %v", id, l)
		}
		seen[id] = true
		if back := m.LinkByID(id); back != l {
			t.Fatalf("LinkByID(LinkID(%v)) = %v", l, back)
		}
	}
}

func TestLinkIDPanicsOnInvalid(t *testing.T) {
	m := MustNew(3, 3)
	bad := []Link{
		{Coord{1, 1}, Coord{1, 3}}, // not neighbors
		{Coord{0, 1}, Coord{1, 1}}, // off mesh
		{Coord{1, 1}, Coord{1, 1}}, // self loop
	}
	for _, l := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LinkID(%v) did not panic", l)
				}
			}()
			m.LinkID(l)
		}()
	}
}

func TestDirDeltaOppositeRoundTrip(t *testing.T) {
	// Every direction has exactly one opposite: the one whose Delta
	// cancels its own.
	for d := Dir(0); d < numDirs; d++ {
		du, dv := d.Delta()
		opposites := 0
		for o := Dir(0); o < numDirs; o++ {
			if ou, ov := o.Delta(); du+ou == 0 && dv+ov == 0 {
				opposites++
			}
		}
		if opposites != 1 {
			t.Errorf("%v: %d directions cancel its Delta, want 1", d, opposites)
		}
	}
}

func TestLinkDir(t *testing.T) {
	c := Coord{3, 3}
	for d := Dir(0); d < numDirs; d++ {
		l := Link{From: c, To: c.Step(d)}
		if l.Dir() != d {
			t.Errorf("link %v: Dir = %v want %v", l, l.Dir(), d)
		}
	}
}

func TestManhattanProperties(t *testing.T) {
	f := func(au, av, bu, bv uint8) bool {
		a := Coord{int(au%16) + 1, int(av%16) + 1}
		b := Coord{int(bu%16) + 1, int(bv%16) + 1}
		d := Manhattan(a, b)
		if d != Manhattan(b, a) {
			return false // symmetry
		}
		if (d == 0) != (a == b) {
			return false // identity
		}
		return d >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighborsCount(t *testing.T) {
	m := MustNew(4, 5)
	counts := map[int]int{} // neighbor count -> cores with it
	for _, c := range m.Cores() {
		counts[len(m.Neighbors(c))]++
	}
	// 4 corners with 2 neighbors; edges with 3; interior with 4.
	wantCorners, wantEdges := 4, 2*(4-2)+2*(5-2)
	wantInterior := (4 - 2) * (5 - 2)
	if counts[2] != wantCorners || counts[3] != wantEdges || counts[4] != wantInterior {
		t.Errorf("neighbor histogram = %v, want 2:%d 3:%d 4:%d",
			counts, wantCorners, wantEdges, wantInterior)
	}
}

func TestCoresRowMajor(t *testing.T) {
	m := MustNew(2, 3)
	want := []Coord{{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}, {2, 3}}
	got := m.Cores()
	if len(got) != len(want) {
		t.Fatalf("len(Cores) = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Cores[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLinkByIDPanicsOutOfRange(t *testing.T) {
	m := MustNew(2, 2)
	for _, id := range []int{-1, m.LinkIDSpace(), m.LinkIDSpace() + 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LinkByID(%d) did not panic", id)
				}
			}()
			m.LinkByID(id)
		}()
	}
}

// CoordIndex is a row-major bijection on the mesh's cores.
func TestCoordIndexRoundTrip(t *testing.T) {
	m := MustNew(4, 7)
	seen := make([]bool, m.NumCores())
	for _, c := range m.Cores() {
		i := m.CoordIndex(c)
		if i < 0 || i >= m.NumCores() || seen[i] {
			t.Fatalf("CoordIndex(%v) = %d (dup or out of range)", c, i)
		}
		seen[i] = true
		if back := m.CoordAt(i); back != c {
			t.Fatalf("CoordAt(%d) = %v, want %v", i, back, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("CoordIndex outside the mesh did not panic")
		}
	}()
	m.CoordIndex(Coord{U: 5, V: 1})
}
