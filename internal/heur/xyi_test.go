package heur

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
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
		in := solve.Instance{Mesh: m, Model: model, Comms: set}
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

// watchSet against a map model under random retire/move sequences. A
// move wakes the attacked link in full, replaces the moved flow's
// candidate on every other retired link of its paths with a fresh
// evaluation, and pushes the path links not retired. It re-evaluates
// exactly the other recorded candidates of retired links that read a
// changed link (a self-read among them), each once, none after its link
// is due to wake, and each from the deltas it was recorded with. It
// wakes in full exactly the retired links with an improving evaluation.
// The live nodes are exactly the recorded candidates and their reads,
// and the arenas never grow beyond the most nodes live at once —
// repeated failures of one link do not accumulate storage.
func TestWatchSetRechecksExactlyTheReaders(t *testing.T) {
	m := mesh.MustNew(4, 4)
	var ids []int
	tr := route.NewLoadTrackerTopo(m)
	for _, l := range m.Links() {
		ids = append(ids, m.LinkID(l))
		tr.Add(l, 1)
	}
	rng := rand.New(rand.NewSource(5))
	randIDs := func(max int) []int {
		seen := map[int]bool{}
		var out []int
		for k := rng.Intn(max + 1); k > 0; k-- {
			if id := ids[rng.Intn(len(ids))]; !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		slices.Sort(out)
		return out
	}
	// A candidate is its link, its flow and its signed reads; its rate,
	// unique in the test, names it.
	type cand struct {
		w, pos int
		reads  map[int]float64
	}
	var s watchSet
	var h route.LoadHeap
	for round := 0; round < 20; round++ {
		s.reset(m.LinkIDSpace())
		h.Init(tr)
		for _, ok := h.Pop(); ok; _, ok = h.Pop() {
		}
		cands := map[float64]cand{}
		recorded := map[int][]float64{} // link -> its candidates' rates
		retired := map[int]bool{}
		nextRate := 0.5
		// record adds a candidate of flow pos to link w, with random
		// reads (w itself among them a quarter of the time).
		record := func(w, pos int) float64 {
			rate := nextRate
			nextRate++
			reads := randIDs(6)
			if rng.Intn(4) == 0 {
				reads = append(reads, w)
				slices.Sort(reads)
				reads = slices.Compact(reads)
			}
			c := cand{w: w, pos: pos, reads: map[int]float64{}}
			var delta []float64
			for _, r := range reads {
				d := rate
				if rng.Intn(2) == 0 {
					d = -rate
				}
				delta = append(delta, d)
				c.reads[r] = d
			}
			s.addCand(w, pos, rate, reads, delta)
			cands[rate] = c
			recorded[w] = append(recorded[w], rate)
			return rate
		}
		// scan records candidates of distinct flows on link w, as an
		// evaluation of a popped link does.
		scan := func(w int) {
			for pos, k := rng.Intn(3), rng.Intn(5); k > 0; pos, k = pos+1+rng.Intn(3), k-1 {
				record(w, pos)
			}
		}
		drop := func(w int, keep func(c cand) bool) {
			recorded[w] = slices.DeleteFunc(recorded[w], func(rate float64) bool { return !keep(cands[rate]) })
		}
		// peak tracks the most candidates and reads the model held at once.
		maxCands, maxReads := 0, 0
		peak := func() {
			nc, nr := 0, 0
			for _, rates := range recorded {
				for _, rate := range rates {
					nc, nr = nc+1, nr+len(cands[rate].reads)
				}
			}
			maxCands, maxReads = max(maxCands, nc), max(maxReads, nr)
		}
		for step := 0; step < 400; step++ {
			w := ids[rng.Intn(len(ids))]
			if retired[w] {
				continue
			}
			scan(w)
			peak()
			if rng.Intn(3) > 0 {
				s.retire(w)
				retired[w] = true
			} else {
				lid, pos := w, rng.Intn(8)
				path := append(randIDs(8), lid)
				slices.Sort(path)
				path = slices.Compact(path)
				var changed []int
				for _, id := range path {
					if rng.Intn(2) == 0 {
						changed = append(changed, id)
					}
				}
				before := map[float64]bool{} // candidates recorded before the move
				for rate := range cands {
					before[rate] = true
				}
				freshed := map[int]bool{}
				rechecked := map[float64]bool{}
				improved := map[int]bool{}
				fresh := func(w, p int) bool {
					if p != pos || w == lid || !retired[w] || !slices.Contains(path, w) || freshed[w] {
						t.Fatalf("round %d step %d: fresh(%d, %d) is not the moved flow %d on a retired path link", round, step, w, p, pos)
					}
					freshed[w] = true
					for k := s.chain[w]; k >= 0; k = s.cands[k].sib {
						if int(s.cands[k].pos) == pos {
							t.Fatalf("round %d step %d: link %d still holds the moved flow's candidate", round, step, w)
						}
					}
					drop(w, func(c cand) bool { return c.pos != pos })
					switch rng.Intn(5) {
					case 0:
						improved[w] = true
						return true
					case 1, 2:
						record(w, pos)
						peak()
					}
					return false
				}
				recheck := func(touched []int, delta []float64) bool {
					if len(delta) == 0 {
						t.Fatalf("round %d step %d: rechecked a candidate with no reads", round, step)
					}
					rate := max(delta[0], -delta[0])
					c, ok := cands[rate]
					if !ok || !before[rate] || !slices.Contains(recorded[c.w], rate) || c.w == lid {
						t.Fatalf("round %d step %d: rechecked %v, which is not a candidate recorded before the move", round, step, rate)
					}
					if rechecked[rate] {
						t.Fatalf("round %d step %d: candidate %v rechecked twice in one move", round, step, rate)
					}
					rechecked[rate] = true
					if !retired[c.w] || improved[c.w] {
						t.Fatalf("round %d step %d: rechecked %v although its link %d is not retired or wakes already", round, step, rate, c.w)
					}
					if !slices.IsSorted(touched) || len(touched) != len(c.reads) {
						t.Fatalf("round %d step %d: candidate %v rechecked from reads %v, want %v ascending", round, step, rate, touched, c.reads)
					}
					for i, r := range touched {
						if d, ok := c.reads[r]; !ok || d != delta[i] {
							t.Fatalf("round %d step %d: candidate %v rechecked with delta %v on link %d, recorded %v", round, step, rate, delta[i], r, d)
						}
					}
					if !slices.ContainsFunc(changed, func(r int) bool { _, ok := c.reads[r]; return ok }) {
						t.Fatalf("round %d step %d: rechecked %v, which read no changed link", round, step, rate)
					}
					if rng.Intn(4) == 0 {
						improved[c.w] = true
						return true
					}
					return false
				}
				s.move(lid, pos, path, changed, &h, fresh, recheck)

				want := map[int]bool{lid: true}
				for _, id := range path {
					if !retired[id] {
						want[id] = true
					} else if id != lid && !freshed[id] {
						t.Fatalf("round %d step %d: retired path link %d got no fresh evaluation", round, step, id)
					}
				}
				for w := range improved {
					want[w] = true
				}
				for rate := range before {
					c := cands[rate]
					if rechecked[rate] || !retired[c.w] || improved[c.w] || !slices.Contains(recorded[c.w], rate) {
						continue
					}
					if slices.ContainsFunc(changed, func(r int) bool { _, ok := c.reads[r]; return ok }) {
						t.Fatalf("round %d step %d: candidate %v read a changed link but was not rechecked", round, step, rate)
					}
				}
				got := map[int]bool{}
				for id, ok := h.Pop(); ok; id, ok = h.Pop() {
					got[id] = true
				}
				if !maps.Equal(got, want) {
					t.Fatalf("round %d step %d: move pushed %v, want %v", round, step, got, want)
				}
				for w := range want {
					delete(recorded, w)
					delete(retired, w)
				}
			}
			// The index holds exactly the model's candidates and reads.
			liveCands, liveReads := 0, 0
			for w, rates := range recorded {
				var held []float64
				for k := s.chain[w]; k >= 0; k = s.cands[k].sib {
					cd := s.cands[k]
					c, ok := cands[cd.rate]
					if !ok || int(cd.w) != w || c.w != w || int(cd.pos) != c.pos {
						t.Fatalf("round %d step %d: stray candidate %v of %d", round, step, cd.rate, w)
					}
					r := 0
					for n := cd.reads; n >= 0; n = s.reads[n].sib {
						if _, ok := c.reads[int(s.reads[n].r)]; !ok || s.reads[n].cand != k {
							t.Fatalf("round %d step %d: stray read %d of candidate %v", round, step, s.reads[n].r, cd.rate)
						}
						r++
					}
					if r != len(c.reads) {
						t.Fatalf("round %d step %d: candidate %v holds %d reads, want %d", round, step, cd.rate, r, len(c.reads))
					}
					held = append(held, cd.rate)
					liveReads += r
				}
				slices.Sort(held)
				if !slices.Equal(held, slices.Sorted(slices.Values(rates))) {
					t.Fatalf("round %d step %d: link %d holds candidates %v, want %v", round, step, w, held, rates)
				}
				liveCands += len(held)
			}
			for _, w := range ids {
				if s.retired[w] != retired[w] {
					t.Fatalf("round %d step %d: link %d retired=%v, want %v", round, step, w, s.retired[w], retired[w])
				}
			}
			onLists := 0
			for _, r := range ids {
				for n := s.head[r]; n >= 0; n = s.reads[n].next {
					if int(s.reads[n].r) != r {
						t.Fatalf("round %d step %d: node of link %d on the list of %d", round, step, s.reads[n].r, r)
					}
					onLists++
				}
			}
			if onLists != liveReads {
				t.Fatalf("round %d step %d: %d read nodes on link lists, want %d", round, step, onLists, liveReads)
			}
			peak()
			if len(s.cands) > maxCands || len(s.reads) > maxReads {
				t.Fatalf("round %d step %d: arenas hold %d candidates and %d reads, at most %d and %d were ever live",
					round, step, len(s.cands), len(s.reads), maxCands, maxReads)
			}
		}
	}
}
