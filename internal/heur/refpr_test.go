package heur

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// refPRState is one communication's shrinking path DAG in the reference
// Path-Remover: steps[t] lists the link ids still allowed at diagonal
// step t.
type refPRState struct {
	c         comm.Comm
	steps     [][]int
	initSizes []int
	multi     bool
}

func (st *refPRState) refreshMulti() {
	st.multi = slices.ContainsFunc(st.steps, func(step []int) bool { return len(step) > 1 })
}

// refPR is the Path-Remover in its straightforward formulation, kept as
// the differential oracle of PR: after every applied removal it rescans
// the full LinksByLoadDesc order, walks it link by link (a link that
// yields no removal is simply passed over, never retired), finds a
// link's users in a link→communication index, and tests removability
// with a forward BFS through the step DAG. check, when non-nil, sees the
// states before every removal round.
func refPR(m *mesh.Mesh, set comm.Set, static bool, check func([]refPRState)) (route.Routing, error) {
	loads := route.NewLoadTracker(m)
	states := make([]refPRState, len(set))
	users := make([][]int, m.LinkIDSpace())
	var byLoad []mesh.Link
	for i, c := range set {
		st := &states[i]
		st.c = c
		for t := 0; t < c.Length(); t++ {
			var step []int
			for _, l := range m.AppendFrontierLinks(nil, c.Src, c.Dst, t) {
				step = append(step, m.LinkID(l))
				users[m.LinkID(l)] = append(users[m.LinkID(l)], i)
			}
			st.steps = append(st.steps, step)
			st.initSizes = append(st.initSizes, len(step))
		}
		st.refreshMulti()
		st.addShares(loads, static, +1)
	}
	for slices.ContainsFunc(states, func(st refPRState) bool { return st.multi }) {
		if check != nil {
			check(states)
		}
		applied := false
		byLoad = loads.LinksByLoadDescInto(byLoad)
		for _, l := range byLoad {
			if refRemoveFromHeaviest(m, loads, states, users, static, m.LinkID(l)) {
				applied = true
				break
			}
		}
		if !applied {
			return route.Routing{}, fmt.Errorf("refPR: no removable loaded link")
		}
	}
	r := route.Routing{Mesh: m}
	for _, st := range states {
		var p route.Path
		for _, step := range st.steps {
			p = append(p, m.LinkByID(step[0]))
		}
		r.Flows = append(r.Flows, route.Flow{Comm: st.c, Path: p})
	}
	return r, nil
}

// refRemoveFromHeaviest deletes link id from the heaviest (rate
// descending, then ID ascending) multi-path communication whose DAG holds
// it and survives the deletion, reporting whether one did. users[id]
// lists the states whose DAG holds link id.
func refRemoveFromHeaviest(m *mesh.Mesh, loads *route.LoadTracker, states []refPRState, users [][]int, static bool, id int) bool {
	var cands []int
	for _, i := range users[id] {
		if states[i].multi {
			cands = append(cands, i)
		}
	}
	slices.SortFunc(cands, func(a, b int) int {
		switch ra, rb := states[a].c.Rate, states[b].c.Rate; {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		}
		return states[a].c.ID - states[b].c.ID
	})
	for _, i := range cands {
		st := &states[i]
		if !st.reachable(m, id) {
			continue
		}
		before := slices.Concat(st.steps...)
		st.addShares(loads, static, -1)
		st.remove(m, id)
		st.refreshMulti()
		st.addShares(loads, static, +1)
		after := slices.Concat(st.steps...)
		for _, lid := range before {
			if !slices.Contains(after, lid) {
				users[lid] = slices.DeleteFunc(users[lid], func(j int) bool { return j == i })
			}
		}
		return true
	}
	return false
}

func (st *refPRState) addShares(loads *route.LoadTracker, static bool, sign float64) {
	for t, step := range st.steps {
		denom := float64(len(step))
		if static {
			denom = float64(st.initSizes[t])
		}
		for _, id := range step {
			loads.AddID(id, sign*st.c.Rate/denom)
		}
	}
}

// reachable runs a forward BFS through the step DAG skipping link skip
// and reports whether the sink is still reached.
func (st *refPRState) reachable(m *mesh.Mesh, skip int) bool {
	frontier := make([]bool, m.NumCores())
	next := make([]bool, m.NumCores())
	frontier[m.CoordIndex(st.c.Src)] = true
	for _, step := range st.steps {
		clear(next)
		for _, id := range step {
			if l := m.LinkByID(id); id != skip && frontier[m.CoordIndex(l.From)] {
				next[m.CoordIndex(l.To)] = true
			}
		}
		frontier, next = next, frontier
	}
	return frontier[m.CoordIndex(st.c.Dst)]
}

// remove deletes link id and keeps only the links on a remaining
// src→dst path (forward ∩ backward reachable), preserving step order.
func (st *refPRState) remove(m *mesh.Mesh, id int) {
	n := len(st.steps)
	fwd := make([][]bool, n+1)
	bwd := make([][]bool, n+1)
	for t := range fwd {
		fwd[t] = make([]bool, m.NumCores())
		bwd[t] = make([]bool, m.NumCores())
	}
	fwd[0][m.CoordIndex(st.c.Src)] = true
	for t, step := range st.steps {
		for _, lid := range step {
			if l := m.LinkByID(lid); lid != id && fwd[t][m.CoordIndex(l.From)] {
				fwd[t+1][m.CoordIndex(l.To)] = true
			}
		}
	}
	bwd[n][m.CoordIndex(st.c.Dst)] = true
	for t := n - 1; t >= 0; t-- {
		for _, lid := range st.steps[t] {
			if l := m.LinkByID(lid); lid != id && bwd[t+1][m.CoordIndex(l.To)] {
				bwd[t][m.CoordIndex(l.From)] = true
			}
		}
	}
	for t, step := range st.steps {
		var kept []int
		for _, lid := range step {
			l := m.LinkByID(lid)
			if lid != id && fwd[t][m.CoordIndex(l.From)] && bwd[t+1][m.CoordIndex(l.To)] {
				kept = append(kept, lid)
			}
		}
		st.steps[t] = kept
	}
}

// refPRSeeds is the number of seeds per differential cell; the race
// build lowers it, since the oracle is single-goroutine code.
var refPRSeeds = 30

// refPRCases runs one parallel subtest per (mesh, instance size) cell of
// the differential matrix, handing it the cell's seeded instances (seed
// k is sets[k]; fewer seeds under -short).
func refPRCases(t *testing.T, ns []int, seeds int, run func(t *testing.T, m *mesh.Mesh, sets []comm.Set)) {
	if testing.Short() {
		seeds = min(seeds, 4)
	}
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {6, 10}, {12, 12}} {
		m := mesh.MustNew(dims[0], dims[1])
		for _, n := range ns {
			t.Run(fmt.Sprintf("%dx%d/n=%d", dims[0], dims[1], n), func(t *testing.T) {
				t.Parallel()
				sets := make([]comm.Set, seeds)
				for k := range sets {
					sets[k] = randomSet(m, int64(1000*n+k), n, 100, 2500)
				}
				run(t, m, sets)
			})
		}
	}
}

// samePaths reports the first flow whose path differs between a and b.
func samePaths(a, b route.Routing) error {
	if len(a.Flows) != len(b.Flows) {
		return fmt.Errorf("%d flows vs %d", len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		if a.Flows[i].Comm != b.Flows[i].Comm || !slices.Equal(a.Flows[i].Path, b.Flows[i].Path) {
			return fmt.Errorf("flow %d: %v vs %v", i, a.Flows[i].Path, b.Flows[i].Path)
		}
	}
	return nil
}

// PR and PR{StaticShares: true} route every instance of the matrix
// exactly as the reference Path-Remover does, on one reused workspace
// per cell.
func TestPRMatchesReference(t *testing.T) {
	model := power.KimHorowitz()
	refPRCases(t, []int{1, 5, 20, 50, 90, 150}, refPRSeeds, func(t *testing.T, m *mesh.Mesh, sets []comm.Set) {
		ws := route.NewWorkspace()
		for seed, set := range sets {
			for _, static := range []bool{false, true} {
				want, err := refPR(m, set, static, nil)
				if err != nil {
					t.Fatalf("seed %d static=%v: reference: %v", seed, static, err)
				}
				got, err := PR{StaticShares: static}.RouteInto(Instance{Mesh: m, Model: model, Comms: set}, ws)
				if err != nil {
					t.Fatalf("seed %d static=%v: %v", seed, static, err)
				}
				if err := samePaths(got, want); err != nil {
					t.Fatalf("seed %d static=%v: %v", seed, static, err)
				}
			}
		}
	})
}

// The O(1) width check of prState.canRemove agrees with BFS reachability
// for every link of every multi-path communication, at every removal
// round of the reference run. Each round costs a BFS per DAG link, so
// the matrix is smaller than the differential's.
func TestPRWidthCheckMatchesReachability(t *testing.T) {
	refPRCases(t, []int{1, 5, 20, 50}, 3, func(t *testing.T, m *mesh.Mesh, sets []comm.Set) {
		for seed, set := range sets {
			_, err := refPR(m, set, false, func(states []refPRState) {
				for i := range states {
					st := &states[i]
					if !st.multi {
						continue
					}
					ps := prState{c: st.c, steps: st.steps}
					for _, step := range st.steps {
						for _, id := range step {
							l := m.LinkByID(id)
							if got, want := ps.canRemove(l.From), st.reachable(m, id); got != want {
								t.Fatalf("seed %d: comm %d link %v: width check %v, reachability %v",
									seed, st.c.ID, l, got, want)
							}
						}
					}
				}
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	})
}
