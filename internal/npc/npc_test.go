package npc

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestPartitionKnownCases(t *testing.T) {
	cases := []struct {
		a    []int
		want bool
	}{
		{[]int{1, 1}, true},
		{[]int{3, 1, 1, 2, 2, 1}, true}, // 3+2 = 1+1+2+1
		{[]int{1, 2}, false},
		{[]int{2, 2, 3}, false}, // odd sum
		{[]int{5}, false},
		{[]int{4, 4, 4, 4}, true},
		{[]int{100, 1, 1, 1}, false},
	}
	for _, tc := range cases {
		subset, ok := Partition(tc.a)
		if ok != tc.want {
			t.Errorf("Partition(%v) ok = %v, want %v", tc.a, ok, tc.want)
			continue
		}
		if !ok {
			continue
		}
		sum := 0
		for _, x := range tc.a {
			sum += x
		}
		got := 0
		seen := map[int]bool{}
		for _, i := range subset {
			if seen[i] {
				t.Fatalf("Partition(%v) reuses index %d", tc.a, i)
			}
			seen[i] = true
			got += tc.a[i]
		}
		if got*2 != sum {
			t.Errorf("Partition(%v) subset sums to %d, want %d", tc.a, got, sum/2)
		}
	}
}

// The DP agrees with brute force on random small inputs.
func TestPartitionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(8) + 1
		a := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(20) + 1
		}
		_, got := Partition(a)
		if want := bruteForcePartition(a); got != want {
			t.Fatalf("Partition(%v) = %v, brute force %v", a, got, want)
		}
	}
}

func bruteForcePartition(a []int) bool {
	sum := 0
	for _, x := range a {
		sum += x
	}
	if sum%2 != 0 {
		return false
	}
	for mask := 0; mask < 1<<len(a); mask++ {
		s := 0
		for i := range a {
			if mask&(1<<i) != 0 {
				s += a[i]
			}
		}
		if s*2 == sum {
			return true
		}
	}
	return false
}

func TestBuildStructure(t *testing.T) {
	a := []int{3, 1, 2, 2}
	s := 3
	red, err := Build(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if red.Q != (s-1)*len(a)+2 {
		t.Errorf("Q = %d, want %d", red.Q, (s-1)*len(a)+2)
	}
	if got, want := red.Model.MaxBW, float64(8)/2+float64((s-1)*len(a)); got != want {
		t.Errorf("BW = %g, want %g", got, want)
	}
	if len(red.Comms) != len(a)+red.Q {
		t.Errorf("nc = %d, want %d", len(red.Comms), len(a)+red.Q)
	}
	if err := red.Comms.Validate(red.Mesh); err != nil {
		t.Fatal(err)
	}
	// Total demand equals total vertical capacity (the saturation setup).
	totalVertical := 0.0
	for _, c := range red.Comms {
		totalVertical += c.Rate // every comm crosses rows exactly once
	}
	if want := float64(red.Q) * red.Model.MaxBW; math.Abs(totalVertical-want) > 1e-9 {
		t.Errorf("total vertical demand %g, want capacity %g", totalVertical, want)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, 2); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Build([]int{1, -2}, 2); err == nil {
		t.Error("negative element accepted")
	}
	if _, err := Build([]int{1, 1}, 1); err == nil {
		t.Error("s=1 accepted")
	}
}

// Forward direction of Theorem 3: a partition yields a valid s-MP routing
// that saturates every vertical link exactly at BW.
func TestReductionForward(t *testing.T) {
	for _, tc := range [][]int{
		{1, 1},
		{3, 1, 1, 2, 2, 1},
		{4, 4, 4, 4},
		{7, 3, 2, 2},
	} {
		for _, s := range []int{2, 3} {
			red, err := Build(tc, s)
			if err != nil {
				t.Fatal(err)
			}
			subset, ok := Partition(red.A)
			if !ok {
				t.Fatalf("Build(%v,%d): expected feasible", tc, s)
			}
			routing, err := red.RoutingFromPartition(subset)
			if err != nil {
				t.Fatal(err)
			}
			if err := routing.Validate(red.Comms, red.S); err != nil {
				t.Fatalf("Build(%v,%d): witness routing invalid: %v", tc, s, err)
			}
			for v, load := range red.VerticalSaturation(routing) {
				if math.Abs(load-red.Model.MaxBW) > 1e-9 {
					t.Fatalf("Build(%v,%d): vertical link %d load %g, want BW %g",
						tc, s, v+1, load, red.Model.MaxBW)
				}
			}
		}
	}
}

// Converse direction (via the proof's equivalence): inputs with no
// partition make the gadget infeasible.
func TestReductionConverse(t *testing.T) {
	for _, tc := range [][]int{
		{1, 2},
		{2, 2, 3},
		{100, 1, 1, 1},
	} {
		red, err := Build(tc, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := Partition(red.A); ok {
			t.Errorf("Build(%v): expected infeasible gadget", tc)
		}
	}
}

// The reduction is polynomial in the input size: mesh cells and
// communication count grow linearly in n and s.
func TestReductionSizePolynomial(t *testing.T) {
	a := make([]int, 30)
	for i := range a {
		a[i] = i + 1
	}
	red, err := Build(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if red.Mesh.NumCores() != 2*red.Q {
		t.Errorf("cores = %d, want %d", red.Mesh.NumCores(), 2*red.Q)
	}
	if len(red.Comms) != 30+red.Q {
		t.Errorf("comms = %d", len(red.Comms))
	}
}

func TestRoutingFromPartitionRejectsBadSubset(t *testing.T) {
	red, err := Build([]int{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := red.RoutingFromPartition([]int{5}); err == nil {
		t.Error("out-of-range subset accepted")
	}
}

// Partition subsets come back sorted-free but must index distinct
// elements; exercise reconstruction on a case with duplicates.
func TestPartitionDuplicates(t *testing.T) {
	a := []int{2, 2, 2, 2, 2, 2}
	subset, ok := Partition(a)
	if !ok {
		t.Fatal("expected partition")
	}
	sort.Ints(subset)
	for i := 1; i < len(subset); i++ {
		if subset[i] == subset[i-1] {
			t.Fatal("duplicate index in subset")
		}
	}
	if len(subset) != 3 {
		t.Errorf("subset size %d, want 3", len(subset))
	}
}
