package comm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
)

func grid() *mesh.Mesh { return mesh.MustNew(8, 8) }

func TestValidate(t *testing.T) {
	m := grid()
	good := Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 100}
	if err := good.ValidateOn(m); err != nil {
		t.Fatalf("valid comm rejected: %v", err)
	}
	bad := []Comm{
		{ID: 2, Src: mesh.Coord{U: 0, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1},
		{ID: 3, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 9, V: 2}, Rate: 1},
		{ID: 4, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 0},
		{ID: 5, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: -3},
		{ID: 6, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 1}, Rate: 1},
	}
	for _, c := range bad {
		if err := c.ValidateOn(m); err == nil {
			t.Errorf("invalid comm %v accepted", c)
		}
	}
}

func TestSetValidateDuplicateID(t *testing.T) {
	m := grid()
	s := Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 1},
		{ID: 1, Src: mesh.Coord{U: 3, V: 3}, Dst: mesh.Coord{U: 4, V: 4}, Rate: 1},
	}
	if err := s.Validate(m); err == nil {
		t.Error("duplicate id accepted")
	}
}

func TestTotals(t *testing.T) {
	s := Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 4}, Rate: 10}, // len 3
		{ID: 2, Src: mesh.Coord{U: 2, V: 2}, Dst: mesh.Coord{U: 4, V: 5}, Rate: 5},  // len 5
	}
	if got := s.TotalRate(); got != 15 {
		t.Errorf("TotalRate = %g, want 15", got)
	}
	if got := s.TotalVolume(); got != 10*3+5*5 {
		t.Errorf("TotalVolume = %g, want %d", got, 10*3+5*5)
	}
}

func TestSortedOrders(t *testing.T) {
	s := Set{
		{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 2}, Rate: 5},  // len 1, density 5
		{ID: 2, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 5, V: 5}, Rate: 8},  // len 8, density 1
		{ID: 3, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 3}, Rate: 12}, // len 3, density 4
	}
	checkIDs := func(name string, got Set, want []int) {
		t.Helper()
		for i, id := range want {
			if got[i].ID != id {
				t.Errorf("%s: order = %v, want IDs %v", name, got, want)
				return
			}
		}
	}
	checkIDs("weight-desc", s.Sorted(ByWeightDesc), []int{3, 2, 1})
	checkIDs("weight-asc", s.Sorted(ByWeightAsc), []int{1, 2, 3})
	checkIDs("length-desc", s.Sorted(ByLengthDesc), []int{2, 3, 1})
	checkIDs("density-desc", s.Sorted(ByDensityDesc), []int{1, 3, 2})
	// Original set untouched.
	if s[0].ID != 1 || s[1].ID != 2 {
		t.Error("Sorted mutated the receiver")
	}
}

func TestSortedTieBreaksByID(t *testing.T) {
	s := Set{
		{ID: 9, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 2}, Rate: 5},
		{ID: 2, Src: mesh.Coord{U: 2, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 5},
	}
	got := s.Sorted(ByWeightDesc)
	if got[0].ID != 2 || got[1].ID != 9 {
		t.Errorf("tie not broken by ID: %v", got)
	}
}

func TestSplit(t *testing.T) {
	c := Comm{ID: 7, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 3}
	parts, err := c.Split([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0].Rate != 1 || parts[1].Rate != 2 {
		t.Fatalf("Split = %v", parts)
	}
	for _, p := range parts {
		if p.ID != 7 || p.Src != c.Src || p.Dst != c.Dst {
			t.Errorf("fragment %v lost identity", p)
		}
	}
	if _, err := c.Split([]float64{1, 1}); err == nil {
		t.Error("wrong-sum split accepted")
	}
	if _, err := c.Split([]float64{3, 0}); err == nil {
		t.Error("zero fragment accepted")
	}
	if _, err := c.Split(nil); err == nil {
		t.Error("empty split accepted")
	}
}

func TestSplitEqualConservesRate(t *testing.T) {
	f := func(rate uint16, s uint8) bool {
		r := float64(rate%5000) + 1
		n := int(s%8) + 1
		c := Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 3, V: 4}, Rate: r}
		parts, err := c.AppendSplitEqual(nil, n)
		if err != nil || len(parts) != n {
			return false
		}
		sum := 0.0
		for _, p := range parts {
			sum += p.Rate
		}
		return math.Abs(sum-r) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendSplitEqualMatchesSplitEqual(t *testing.T) {
	c := Comm{ID: 7, Src: mesh.Coord{U: 1, V: 2}, Dst: mesh.Coord{U: 5, V: 3}, Rate: 1001}
	for s := 1; s <= 6; s++ {
		want := make([]Comm, s)
		for i := range want {
			want[i] = Comm{ID: c.ID, Src: c.Src, Dst: c.Dst, Rate: c.Rate / float64(s)}
		}
		// Appends after existing content, reusing the backing array.
		dst := make([]Comm, 1, 1+s)
		dst[0] = Comm{ID: -1}
		got, err := c.AppendSplitEqual(dst, s)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &dst[0] || got[0].ID != -1 {
			t.Fatalf("s=%d: AppendSplitEqual did not extend dst in place", s)
		}
		if len(got)-1 != len(want) {
			t.Fatalf("s=%d: appended %d fragments, want %d", s, len(got)-1, len(want))
		}
		for i, w := range want {
			if got[i+1] != w {
				t.Errorf("s=%d fragment %d: got %+v, want %+v", s, i, got[i+1], w)
			}
		}
	}
	if _, err := c.AppendSplitEqual(nil, 0); err == nil {
		t.Error("AppendSplitEqual(0) accepted")
	}
	zero := Comm{ID: 1, Src: mesh.Coord{U: 0, V: 0}, Dst: mesh.Coord{U: 1, V: 0}}
	if _, err := zero.AppendSplitEqual(nil, 2); err == nil {
		t.Error("AppendSplitEqual of a zero-rate comm accepted")
	}
}

func TestSplitEqualRejectsZero(t *testing.T) {
	c := Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 2, V: 2}, Rate: 4}
	if _, err := c.AppendSplitEqual(nil, 0); err == nil {
		t.Error("AppendSplitEqual(0) accepted")
	}
}

func TestLengthAndDirection(t *testing.T) {
	c := Comm{Src: mesh.Coord{U: 2, V: 5}, Dst: mesh.Coord{U: 4, V: 1}}
	if c.Length() != 6 {
		t.Errorf("Length = %d, want 6", c.Length())
	}
	if c.Direction() != mesh.DirSW {
		t.Errorf("Direction = %v, want d2(SW)", c.Direction())
	}
}
