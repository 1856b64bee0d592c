package comm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mesh"
)

// refValidateOn is Set.ValidateOn in its straightforward form — one pass
// with a seen-set of IDs — kept as the reference of the ordered fast path.
func refValidateOn(s Set, p Platform) error {
	seen := make(map[int]bool, len(s))
	for _, c := range s {
		if err := c.ValidateOn(p); err != nil {
			return err
		}
		if seen[c.ID] {
			return fmt.Errorf("comm: duplicate id %d", c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}

// sameValidation fails unless s.ValidateOn(m) and the reference agree on
// the error text (or both accept).
func sameValidation(t *testing.T, m *mesh.Mesh, s Set) {
	t.Helper()
	got, want := s.ValidateOn(m), refValidateOn(s, m)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("set %v: ValidateOn = %v, reference %v", s, got, want)
	}
}

// decodeSet builds a set from fuzz bytes, five per communication: an ID
// in [-2,13] and a rate in {-200,…,1300} from the first byte (so
// duplicates, decreasing IDs and non-positive rates all occur), then
// source and sink coordinates in [0,9] (off an up-to-8x8 mesh at times,
// and sometimes equal).
func decodeSet(data []byte) Set {
	var s Set
	for ; len(data) >= 5; data = data[5:] {
		s = append(s, Comm{
			ID:   int(data[0]%16) - 2,
			Src:  mesh.Coord{U: int(data[1] % 10), V: int(data[2] % 10)},
			Dst:  mesh.Coord{U: int(data[3] % 10), V: int(data[4] % 10)},
			Rate: float64(int(data[0]/16)-2) * 100,
		})
	}
	return s
}

// FuzzSetValidateOn checks the ordered fast path of Set.ValidateOn
// against the reference on arbitrary IDs, orders and invalid
// communications: the same error text, or both accept.
func FuzzSetValidateOn(f *testing.F) {
	f.Add([]byte{0x30, 1, 1, 2, 2, 0x31, 1, 1, 3, 3}, uint8(4), uint8(4))
	f.Add([]byte{0x35, 1, 1, 2, 2, 0x33, 1, 1, 3, 3, 0x35, 2, 2, 1, 1}, uint8(8), uint8(8))
	f.Add([]byte{0x30, 1, 1, 2, 2, 0x31, 0, 1, 3, 3, 0x31, 1, 1, 3, 3}, uint8(4), uint8(4))
	f.Add([]byte{0x32, 1, 1, 2, 2, 0x23, 1, 1, 3, 3, 0x32, 2, 2, 2, 2}, uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, p, q uint8) {
		sameValidation(t, mesh.MustNew(int(p%8)+1, int(q%8)+1), decodeSet(data))
	})
}

// Seeded random sets — mostly valid and increasing, with one random
// perturbation (an ID repeated or lowered, a core off the mesh, a bad
// rate, a self-loop) — validate exactly as the reference does.
func TestSetValidateOnMatchesReference(t *testing.T) {
	m := mesh.MustNew(6, 6)
	rng := rand.New(rand.NewSource(3))
	coord := func() mesh.Coord { return mesh.Coord{U: rng.Intn(6) + 1, V: rng.Intn(6) + 1} }
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(12)
		s := make(Set, 0, n)
		id := rng.Intn(3) - 1
		for len(s) < n {
			c := Comm{ID: id, Src: coord(), Dst: coord(), Rate: 50 + rng.Float64()*500}
			if c.Src != c.Dst {
				s = append(s, c)
				id += rng.Intn(3) + 1
			}
		}
		if n > 0 {
			c := &s[rng.Intn(n)]
			switch rng.Intn(6) {
			case 0:
				c.ID = s[rng.Intn(n)].ID
			case 1:
				c.ID -= rng.Intn(4) + 1
			case 2:
				c.Src.U = 0
			case 3:
				c.Rate = -c.Rate
			case 4:
				c.Dst = c.Src
			}
		}
		sameValidation(t, m, s)
	}
}

// Validating a set with increasing IDs allocates nothing.
func TestSetValidateOnAllocFree(t *testing.T) {
	m := grid()
	var s Set
	for i := 0; i < 70; i++ {
		s = append(s, Comm{ID: 2 * i, Src: mesh.Coord{U: 1 + i%8, V: 1}, Dst: mesh.Coord{U: 1 + i%8, V: 8}, Rate: 100})
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := s.ValidateOn(m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ValidateOn allocates %.0f times on an increasing set", allocs)
	}
}
