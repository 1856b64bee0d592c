package heur

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// moveOff is the fresh-scratch full-path form of (*heurScratch).moveOff,
// the shape the tests were written against: the modified span is stitched
// back between the unchanged prefix and suffix, exercising the span
// bookkeeping along the way.
func moveOff(p route.Path, l mesh.Link) (route.Path, bool) {
	span, lo, hi, ok := new(heurScratch).moveOff(p, l)
	if !ok {
		return nil, false
	}
	np := append(route.Path{}, p[:lo]...)
	np = append(np, span...)
	np = append(np, p[hi+1:]...)
	return np, true
}

// moveOff must always return a valid Manhattan path with the same
// endpoints that avoids the targeted link — or report the move impossible.
func TestMoveOffProperties(t *testing.T) {
	m := mesh.MustNew(8, 8)
	rng := rand.New(rand.NewSource(9))
	moved, stuck := 0, 0
	for i := 0; i < 500; i++ {
		src := mesh.Coord{U: rng.Intn(8) + 1, V: rng.Intn(8) + 1}
		dst := mesh.Coord{U: rng.Intn(8) + 1, V: rng.Intn(8) + 1}
		if src == dst {
			continue
		}
		// Random Manhattan path via a random two-bend candidate.
		cands := TwoBendPaths(src, dst)
		p := cands[rng.Intn(len(cands))]
		l := p[rng.Intn(len(p))]
		np, ok := moveOff(p, l)
		if !ok {
			stuck++
			continue
		}
		moved++
		if err := np.Validate(m, src, dst); err != nil {
			t.Fatalf("moveOff(%v -> %v, %v): invalid path: %v", src, dst, l, err)
		}
		for _, nl := range np {
			if nl == l {
				t.Fatalf("moveOff did not avoid %v", l)
			}
		}
	}
	if moved == 0 {
		t.Fatal("moveOff never succeeded in 500 trials")
	}
	if stuck == 0 {
		t.Fatal("moveOff never hit the Manhattan constraint in 500 trials")
	}
}

// A vertical link in the source column cannot be avoided (no horizontal
// move precedes it), and a horizontal link in the sink row cannot either.
func TestMoveOffConstraintCases(t *testing.T) {
	src, dst := mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 3, V: 3}
	yx := route.YX(src, dst) // S,S,E,E: vertical hops are in column 1
	if _, ok := moveOff(yx, yx[0]); ok {
		t.Error("vertical hop with no preceding horizontal move was moved")
	}
	// Its final horizontal hop has no vertical move after it.
	if _, ok := moveOff(yx, yx[len(yx)-1]); ok {
		t.Error("horizontal hop with no following vertical move was moved")
	}
	// The XY path's corner hops are movable.
	xy := route.XY(src, dst) // E,E,S,S
	if _, ok := moveOff(xy, xy[2]); !ok {
		t.Error("movable vertical hop reported stuck")
	}
	if _, ok := moveOff(xy, xy[0]); !ok {
		t.Error("movable horizontal hop reported stuck")
	}
}

// moveOff on a link not on the path reports failure.
func TestMoveOffLinkNotOnPath(t *testing.T) {
	p := route.XY(mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 2, V: 2})
	alien := mesh.Link{From: mesh.Coord{U: 5, V: 5}, To: mesh.Coord{U: 5, V: 6}}
	if _, ok := moveOff(p, alien); ok {
		t.Error("alien link moved")
	}
}

// The vertical move shifts the column toward the source: Section 5.4's
// "horizontal link going to the same core, from the core that is the
// closest to the source core".
func TestMoveOffVerticalEntersSameCoreFromSourceSide(t *testing.T) {
	src, dst := mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 4, V: 4}
	p := route.XY(src, dst) // E,E,E,S,S,S — vertical hops in column 4
	l := p[4]               // (2,4)->(3,4)
	np, ok := moveOff(p, l)
	if !ok {
		t.Fatal("expected movable")
	}
	// The new path must enter (3,4) horizontally from (3,3).
	entered := false
	for _, nl := range np {
		if nl.To == l.To {
			if nl.From != (mesh.Coord{U: 3, V: 3}) {
				t.Fatalf("entered %v from %v, want from C(3,3)", l.To, nl.From)
			}
			entered = true
		}
	}
	if !entered {
		t.Fatalf("new path no longer visits %v: %v", l.To, np)
	}
}

// The horizontal move leaves the same core vertically toward the sink.
func TestMoveOffHorizontalLeavesSameCoreTowardSink(t *testing.T) {
	src, dst := mesh.Coord{U: 1, V: 1}, mesh.Coord{U: 4, V: 4}
	p := route.XY(src, dst)
	l := p[1] // (1,2)->(1,3) horizontal
	np, ok := moveOff(p, l)
	if !ok {
		t.Fatal("expected movable")
	}
	for _, nl := range np {
		if nl.From == l.From {
			if nl.To != (mesh.Coord{U: 2, V: 2}) {
				t.Fatalf("left %v to %v, want to C(2,2)", l.From, nl.To)
			}
			return
		}
	}
	t.Fatalf("new path no longer visits %v: %v", l.From, np)
}

// XYI never increases power relative to plain XY.
func TestXYINeverWorseThanXY(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	for seed := int64(0); seed < 15; seed++ {
		set := randomSet(m, seed, 30, 100, 2000)
		in := Instance{Mesh: m, Model: model, Comms: set}
		xy := solveOrDie(t, XY{}, in)
		xyi := solveOrDie(t, XYI{}, in)
		if xy.Feasible && !xyi.Feasible {
			t.Fatalf("seed %d: XY feasible but XYI not", seed)
		}
		if xy.Feasible && xyi.Feasible && xyi.Power.Total() > xy.Power.Total()+1e-9 {
			t.Fatalf("seed %d: XYI power %g > XY power %g",
				seed, xyi.Power.Total(), xy.Power.Total())
		}
	}
}

// The compiled pseudo power agrees with the strict model inside the
// feasible range and extends it monotonically beyond.
func TestPseudoLinkPower(t *testing.T) {
	model := power.KimHorowitz()
	ev := power.Compile(model)
	for _, load := range []float64{0, 100, 1000, 2500, 3500} {
		want, err := model.LinkPower(load)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.Pseudo(load); got != want {
			t.Errorf("pseudo(%g) = %g, want %g", load, got, want)
		}
	}
	prev := ev.Pseudo(3500)
	for load := 3600.0; load < 8000; load += 400 {
		cur := ev.Pseudo(load)
		if cur <= prev {
			t.Errorf("pseudo power not increasing past top frequency at %g", load)
		}
		prev = cur
	}
}

func randomSet(m *mesh.Mesh, seed int64, n int, wmin, wmax float64) comm.Set {
	rng := rand.New(rand.NewSource(seed))
	set := make(comm.Set, 0, n)
	for i := 0; i < n; i++ {
		var src, dst mesh.Coord
		for {
			src = mesh.Coord{U: rng.Intn(m.P()) + 1, V: rng.Intn(m.Q()) + 1}
			dst = mesh.Coord{U: rng.Intn(m.P()) + 1, V: rng.Intn(m.Q()) + 1}
			if src != dst {
				break
			}
		}
		set = append(set, comm.Comm{ID: i, Src: src, Dst: dst, Rate: wmin + rng.Float64()*(wmax-wmin)})
	}
	return set
}

// watchSet against a map model under random retire/wake sequences: a
// wake pushes exactly the retired links whose last reads include the
// woken link, the live nodes are exactly the distinct reads of the
// retired links, and the arena never grows beyond the most nodes live
// at once — repeated failures of one link do not accumulate storage.
func TestWatchSetWakesExactlyTheReaders(t *testing.T) {
	m := mesh.MustNew(4, 4)
	var ids []int
	tr := route.NewLoadTracker(m)
	for _, l := range m.Links() {
		ids = append(ids, m.LinkID(l))
		tr.Add(l, 1)
	}
	rng := rand.New(rand.NewSource(5))
	var s watchSet
	var h route.LoadHeap
	for round := 0; round < 20; round++ {
		s.reset(m.LinkIDSpace())
		h.Init(tr)
		for _, ok := h.Pop(); ok; _, ok = h.Pop() {
		}
		reads := map[int]map[int]bool{} // retired link -> its distinct reads
		maxLive := 0
		for step := 0; step < 300; step++ {
			if rng.Intn(3) > 0 {
				w := ids[rng.Intn(len(ids))]
				if reads[w] != nil {
					continue
				}
				read := []int{w}
				for k := rng.Intn(12); k > 0; k-- {
					read = append(read, ids[rng.Intn(len(ids))])
				}
				s.retire(w, read)
				reads[w] = map[int]bool{}
				for _, r := range read {
					reads[w][r] = true
				}
			} else {
				r := ids[rng.Intn(len(ids))]
				s.wake(r, &h)
				var woken []int
				for id, ok := h.Pop(); ok; id, ok = h.Pop() {
					woken = append(woken, id)
				}
				for _, w := range woken {
					if reads[w] == nil || !reads[w][r] {
						t.Fatalf("round %d step %d: waking %d pushed %d, which does not watch it", round, step, r, w)
					}
					delete(reads, w)
				}
				for w, rs := range reads {
					if rs[r] {
						t.Fatalf("round %d step %d: waking %d left its watcher %d retired", round, step, r, w)
					}
				}
			}
			want := 0
			for _, rs := range reads {
				want += len(rs)
			}
			live := 0
			for w := range reads {
				for n := s.chain[w]; n >= 0; n = s.nodes[n].sib {
					if !reads[w][int(s.nodes[n].r)] {
						t.Fatalf("round %d step %d: stray node %d->%d", round, step, w, s.nodes[n].r)
					}
					live++
				}
			}
			if live != want {
				t.Fatalf("round %d step %d: %d live nodes, want %d", round, step, live, want)
			}
			maxLive = max(maxLive, live)
			if len(s.nodes) > maxLive {
				t.Fatalf("round %d step %d: arena holds %d nodes, at most %d were ever live", round, step, len(s.nodes), maxLive)
			}
		}
	}
}
