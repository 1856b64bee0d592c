package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorKnownValues(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.n != 8 {
		t.Fatalf("n = %d", a.n)
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", a.Mean())
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 {
		t.Error("empty accumulator not zero")
	}
	a.Add(3)
	if a.Mean() != 3 {
		t.Error("single sample stats wrong")
	}
}

// The running mean agrees with the summed mean.
func TestAccumulatorMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(100) + 2
		xs := make([]float64, n)
		var a Accumulator
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 50
			a.Add(xs[i])
		}
		if mean := Mean(xs); math.Abs(a.Mean()-mean) > 1e-9 {
			t.Fatalf("trial %d: running mean %g vs summed %g", trial, a.Mean(), mean)
		}
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Error("empty ratio not 0")
	}
	r.Add(true)
	r.Add(false)
	r.Add(true)
	r.Add(true)
	if math.Abs(r.Value()-0.75) > 1e-12 {
		t.Errorf("Value = %g, want 0.75", r.Value())
	}
}

// Mean is translation-equivariant.
func TestMeanTranslation(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 100
		}
		return math.Abs(Mean(shifted)-Mean(xs)-100) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {99, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile of empty = %g, want 0", got)
	}
}
