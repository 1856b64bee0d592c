package route

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
)

// The heap's pop sequence over a static load vector is exactly the
// LinksByLoadDesc order, including deterministic tie-breaking.
func TestLoadHeapMatchesSortedScan(t *testing.T) {
	m := mesh.MustNew(6, 6)
	rng := rand.New(rand.NewSource(42))
	tr := NewLoadTrackerTopo(m)
	for _, l := range m.Links() {
		switch rng.Intn(3) {
		case 0: // idle
		case 1:
			tr.Add(l, 500) // heavy ties
		case 2:
			tr.Add(l, float64(rng.Intn(2000))+rng.Float64())
		}
	}
	want := tr.LinksByLoadDesc()
	var h LoadHeap
	h.Init(tr)
	for i, wl := range want {
		id, ok := h.Pop()
		if !ok {
			t.Fatalf("heap dry after %d pops, want %d", i, len(want))
		}
		if got := m.LinkByID(id); got != wl {
			t.Fatalf("pop %d: got %v, want %v", i, got, wl)
		}
	}
	if id, ok := h.Pop(); ok {
		t.Fatalf("heap still live after all loaded links popped: %v", m.LinkByID(id))
	}
}

// drainClone pops a copy of the heap to exhaustion and returns the link
// ids in pop order, leaving h untouched.
func drainClone(h *LoadHeap) []int {
	c := LoadHeap{t: h.t, entries: slices.Clone(h.entries), pos: slices.Clone(h.pos)}
	var ids []int
	for {
		id, ok := c.Pop()
		if !ok {
			return ids
		}
		ids = append(ids, id)
	}
}

// wantOrder is the full-resort reference: LinksByLoadDesc as link ids.
func wantOrder(m *mesh.Mesh, tr *LoadTracker) []int {
	var ids []int
	for _, l := range tr.LinksByLoadDesc() {
		ids = append(ids, m.LinkID(l))
	}
	return ids
}

// Interleaved pops and mutations with incremental pushes keep the pop
// order equal to a fresh full sort: after every batch of load changes
// (with Push per changed link) and re-pushing the links popped in the
// round, the drained heap equals LinksByLoadDesc.
func TestLoadHeapLazyUpdatesMatchResort(t *testing.T) {
	m := mesh.MustNew(5, 5)
	rng := rand.New(rand.NewSource(7))
	tr := NewLoadTrackerTopo(m)
	links := m.Links()
	for _, l := range links {
		if rng.Intn(2) == 0 {
			tr.Add(l, float64(rng.Intn(1000)+1))
		}
	}
	var h LoadHeap
	h.Init(tr)
	var popped []int
	for round := 0; round < 50; round++ {
		// Pop a few links: they leave the heap (the no-improvement path).
		popped = popped[:0]
		for k := rng.Intn(4); k > 0; k-- {
			if id, ok := h.Pop(); ok {
				popped = append(popped, id)
			}
		}
		// Mutate a handful of links (removals, additions, zeroing) and
		// push each change — the applied-move path.
		for k := rng.Intn(5) + 1; k > 0; k-- {
			l := links[rng.Intn(len(links))]
			id := m.LinkID(l)
			switch rng.Intn(3) {
			case 0:
				tr.Add(l, float64(rng.Intn(800)+1))
			case 1:
				tr.Add(l, -tr.LoadID(id)) // drive to zero
			case 2:
				tr.Add(l, -tr.LoadID(id)/2)
			}
			h.Push(id)
		}
		// Re-admit the popped links at their current loads.
		for _, id := range popped {
			h.Push(id)
		}

		if got, want := drainClone(&h), wantOrder(m, tr); !slices.Equal(got, want) {
			t.Fatalf("round %d: drained %v, want %v", round, got, want)
		}
	}
}

// Random Pop/Push/zeroing sequences: the heap holds at most one entry
// per loaded link, its position index agrees with the entry array, and a
// Push at zero load removes the link's entry.
func TestLoadHeapOneEntryPerLoadedLink(t *testing.T) {
	m := mesh.MustNew(4, 6)
	links := m.Links()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewLoadTrackerTopo(m)
		for _, l := range links {
			if rng.Intn(3) == 0 {
				tr.Add(l, float64(rng.Intn(5)+1))
			}
		}
		var h LoadHeap
		h.Init(tr)
		var held []int
		for step := 0; step < 400; step++ {
			id := m.LinkID(links[rng.Intn(len(links))])
			switch rng.Intn(6) {
			case 0: // pop, sometimes holding the link out for a while
				if popped, ok := h.Pop(); ok && rng.Intn(2) == 0 {
					held = append(held, popped)
				}
			case 1: // re-admit the held-out links
				for _, hid := range held {
					h.Push(hid)
				}
				held = held[:0]
			case 2: // zeroing
				tr.AddID(id, -tr.LoadID(id))
				h.Push(id)
				if h.pos[id] != -1 {
					t.Fatalf("seed %d step %d: link %d kept an entry at zero load", seed, step, id)
				}
			case 3: // halving: the entry sifts down
				tr.AddID(id, -tr.LoadID(id)/2)
				h.Push(id)
			default: // small integer loads: plenty of ties
				tr.AddID(id, float64(rng.Intn(5)+1))
				h.Push(id)
			}
			loaded := 0
			for _, load := range tr.LoadsView() {
				if load > 0 {
					loaded++
				}
			}
			if len(h.entries) > loaded {
				t.Fatalf("seed %d step %d: %d entries for %d loaded links", seed, step, len(h.entries), loaded)
			}
			for i, e := range h.entries {
				if h.pos[e.id] != int32(i) {
					t.Fatalf("seed %d step %d: pos[%d] = %d, entry sits at %d", seed, step, e.id, h.pos[e.id], i)
				}
			}
		}
		// Pushing every link re-admits exactly the loaded ones, in
		// LinksByLoadDesc order.
		for _, l := range links {
			h.Push(m.LinkID(l))
		}
		if got, want := drainClone(&h), wantOrder(m, tr); !slices.Equal(got, want) {
			t.Fatalf("seed %d: drained %v, want %v", seed, got, want)
		}
	}
}

// The incidence index tracks exactly the members whose included paths
// cross each link, sorted ascending, through includes and excludes.
func TestIncidenceIndex(t *testing.T) {
	m := mesh.MustNew(4, 4)
	tr := NewLoadTrackerTopo(m)
	tr.EnableIncidence()
	a := XY(mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 1, V: 4}) // row 1 east
	b := XY(mesh.Coord{U: 1, V: 2}, mesh.Coord{U: 1, V: 4}) // overlaps a
	c := XY(mesh.Coord{U: 3, V: 1}, mesh.Coord{U: 4, V: 1}) // disjoint
	tr.IncludePath(2, a, 100)
	tr.IncludePath(0, b, 50)
	tr.IncludePath(1, c, 10)

	shared := m.LinkID(mesh.Link{From: mesh.Coord{U: 1, V: 2}, To: mesh.Coord{U: 1, V: 3}})
	if got := tr.MembersOn(shared); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("MembersOn(shared) = %v, want [0 2]", got)
	}
	only := m.LinkID(mesh.Link{From: mesh.Coord{U: 1, V: 1}, To: mesh.Coord{U: 1, V: 2}})
	if got := tr.MembersOn(only); len(got) != 1 || got[0] != 2 {
		t.Fatalf("MembersOn(only-a) = %v, want [2]", got)
	}
	if got := tr.Load(m.LinkByID(shared)); got != 150 {
		t.Fatalf("shared load = %g, want 150", got)
	}

	tr.ExcludePath(2, a, 100)
	if got := tr.MembersOn(shared); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after exclude, MembersOn(shared) = %v, want [0]", got)
	}
	if got := tr.MembersOn(only); len(got) != 0 {
		t.Fatalf("after exclude, MembersOn(only-a) = %v, want empty", got)
	}
	// Re-include under a different path (the swap idiom).
	tr.IncludePath(2, b, 100)
	if got := tr.MembersOn(shared); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("after swap, MembersOn(shared) = %v, want [0 2]", got)
	}

	// Reset switches the index off; re-enabling starts empty.
	tr.Reset()
	tr.EnableIncidence()
	if got := tr.MembersOn(shared); len(got) != 0 {
		t.Fatalf("after reset, MembersOn = %v, want empty", got)
	}
}

// The aggregate observer: running totals match a fresh recompute to within
// float drift, RecomputeAggregates resyncs them bit-exactly, and the
// drifted totals demonstrably diverge from the exact sum after thousands
// of add/remove cycles — the SA float-drift regression this tracker-level
// resync exists for.
func TestAggregateDriftAndResync(t *testing.T) {
	m := mesh.MustNew(8, 8)
	ev := power.Compile(power.KimHorowitz())
	tr := NewLoadTrackerTopo(m)
	tr.Observe(ev)

	fresh := func() (float64, float64) {
		var p, x float64
		for _, load := range tr.LoadsView() {
			p += ev.Pseudo(load)
			x += ev.Excess(load)
		}
		return p, x
	}

	rng := rand.New(rand.NewSource(99))
	links := m.Links()
	// Thousands of noisy add/remove cycles, fractional rates included, the
	// shape of a long annealing run.
	rates := make(map[int]float64)
	for it := 0; it < 20000; it++ {
		id := m.LinkID(links[rng.Intn(len(links))])
		if r, ok := rates[id]; ok && rng.Intn(2) == 0 {
			tr.AddID(id, -r)
			delete(rates, id)
		} else {
			r := rng.Float64()*1200 + 1.0/3
			tr.AddID(id, r)
			rates[id] = rates[id] + r
		}
	}

	gotP, gotX := tr.Aggregates()
	wantP, wantX := fresh()
	if drift := gotP - wantP; drift == 0 {
		t.Log("incremental pseudo-power total happens to be exact on this run")
	} else {
		t.Logf("incremental pseudo-power drift after 20000 updates: %g", drift)
	}
	// Drift stays small in relative terms…
	if rel := math.Abs(gotP-wantP) / (1 + math.Abs(wantP)); rel > 1e-9 {
		t.Errorf("pseudo-power drift too large: got %g want %g", gotP, wantP)
	}
	if rel := math.Abs(gotX-wantX) / (1 + math.Abs(wantX)); rel > 1e-9 {
		t.Errorf("excess drift too large: got %g want %g", gotX, wantX)
	}
	// …and the resync is bit-exact against the fresh sum.
	reP, reX := tr.RecomputeAggregates()
	if reP != wantP || reX != wantX {
		t.Errorf("RecomputeAggregates = (%g,%g), want exact (%g,%g)", reP, reX, wantP, wantX)
	}
	if p, x := tr.Aggregates(); p != wantP || x != wantX {
		t.Errorf("Aggregates after resync = (%g,%g), want (%g,%g)", p, x, wantP, wantX)
	}
}
