package noc

// Queue-level property test of the calendar queue: random interleavings of
// pushes and pops must pop exactly the (time, key) order a sort gives, for
// any calendar shape — equal times, times one or more revolutions ahead,
// far-future and infinite times, pushes earlier than the last pop, and the
// degenerate calendar of a routing with no used link (inv 0).

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the specification: pending events kept sorted by
// (time, key).
type refQueue struct{ items []event }

func (r *refQueue) push(e event) {
	i := sort.Search(len(r.items), func(i int) bool {
		it := r.items[i]
		return it.time > e.time || (it.time == e.time && it.key > e.key)
	})
	r.items = append(r.items, event{})
	copy(r.items[i+1:], r.items[i:])
	r.items[i] = e
}

func (r *refQueue) pop() event {
	e := r.items[0]
	r.items = r.items[1:]
	return e
}

func TestEventQueueMatchesSortedOrder(t *testing.T) {
	shapes := []struct {
		buckets int
		inv     float64
	}{
		{1, 0},    // no used link: one day, a sorted list
		{1, 4},    // one bucket, many days per revolution
		{2, 0.5},  // wide days
		{8, 4},    // revolutions of 2 µs
		{64, 4},   // the simulator's typical shape
		{64, 1e3}, // narrow days: most events revolutions ahead
		{4, 1e9},  // days near the int64 cap
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var q eventQueue
			q.reset(sh.buckets, sh.inv)
			var ref refQueue
			last := 0.0 // time of the last pop
			revolution := float64(sh.buckets) / math.Max(sh.inv, 1e-9)
			for step := 0; step < 3000; step++ {
				if q.len() != len(ref.items) {
					t.Fatalf("shape %v seed %d step %d: len %d, want %d", sh, seed, step, q.len(), len(ref.items))
				}
				if q.len() > 0 && rng.Intn(5) < 2 {
					got, want := q.pop(), ref.pop()
					if got != want {
						t.Fatalf("shape %v seed %d step %d: popped %+v, want %+v", sh, seed, step, got, want)
					}
					last = got.time
					continue
				}
				var tm float64
				switch rng.Intn(8) {
				case 0: // a tie with the last pop
					tm = last
				case 1: // on a coarse grid: ties among pending events
					tm = last + float64(rng.Intn(4))*0.25
				case 2: // one or more revolutions ahead
					tm = last + revolution*float64(1+rng.Intn(3)) + rng.Float64()
				case 3: // far future and beyond
					tm = []float64{1e12, 1e300, math.Inf(1)}[rng.Intn(3)]
				case 4: // before the last pop
					tm = last * rng.Float64()
				default:
					tm = last + rng.ExpFloat64()
				}
				kind := eventKind(rng.Intn(4))
				arg := int32(rng.Intn(100))
				ref.push(event{time: tm, key: q.seq<<2 | uint32(kind), arg: arg})
				q.push(tm, kind, arg)
			}
			for q.len() > 0 {
				if got, want := q.pop(), ref.pop(); got != want {
					t.Fatalf("shape %v seed %d drain: popped %+v, want %+v", sh, seed, got, want)
				}
			}
		}
	}
}

// TestSizeCalendar pins the sizing rule: a power of two covering two
// buckets per pending event, and no day width without a used link.
func TestSizeCalendar(t *testing.T) {
	for _, c := range []struct {
		flows, used   int
		bits, maxFreq float64
		buckets       int
		inv           float64
	}{
		{0, 0, 2048, 0, 1, 0},
		{3, 0, 2048, 0, 8, 0},
		{15, 40, 2048, 2500, 256, 4 * 2500 / 2048.0},
		{48, 40, 2048, 2500, 256, 4 * 2500 / 2048.0},
		{49, 40, 2048, 2500, 512, 4 * 2500 / 2048.0},
	} {
		b, inv := sizeCalendar(c.flows, c.used, c.bits, c.maxFreq)
		if b != c.buckets || inv != c.inv {
			t.Errorf("sizeCalendar(%d, %d, %g, %g) = %d, %g; want %d, %g",
				c.flows, c.used, c.bits, c.maxFreq, b, inv, c.buckets, c.inv)
		}
	}
}
