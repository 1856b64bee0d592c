package exact

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

// A stop poll that already fired abandons the branch-and-bound once the
// node count crosses the poll stride, surfacing the sentinel instead of
// a result. The reference run first proves the instance explores enough
// nodes for the stride to be reached at all.
func TestSolveStopAbandonsSearch(t *testing.T) {
	m := mesh.MustNew(5, 5)
	model := power.KimHorowitz()
	set := workload.New(m, 77).Uniform(12, 100, 1500)
	w := NewWorkspace()
	_, _, st, err := w.Solve(m, model, set, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.States <= stopNodeStride {
		t.Fatalf("instance explores only %d nodes, need > %d to exercise the stop poll", st.States, stopNodeStride)
	}
	_, _, _, err = w.Solve(m, model, set, Options{Workers: 1, Stop: func() bool { return true }})
	if !errors.Is(err, solve.ErrStopped) {
		t.Fatalf("err = %v, want solve.ErrStopped", err)
	}
}

// A never-firing stop hook changes neither the optimum nor the node
// count: the poll piggybacks on the existing node counter and touches no
// search state.
func TestSolveStopNeverFiringChangesNothing(t *testing.T) {
	m := mesh.MustNew(4, 4)
	model := power.KimHorowitz()
	set := workload.New(m, 31).Uniform(6, 200, 2000)
	w := NewWorkspace()
	ra, oka, sta, err := w.Solve(m, model, set, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rb, okb, stb, err := w.Solve(m, model, set, Options{Workers: 1, Stop: func() bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	if oka != okb || sta.States != stb.States {
		t.Fatalf("stop hook changed the search: ok %v/%v, states %d/%d", oka, okb, sta.States, stb.States)
	}
	if oka {
		pa := route.Evaluate(ra, model).Power.Total()
		pb := route.Evaluate(rb, model).Power.Total()
		if pa != pb {
			t.Fatalf("stop hook changed the optimum: %g vs %g", pa, pb)
		}
	}
}

// A panic on a parallel worker (here a Stop hook panicking on its third
// poll, which lands inside a subtree task) reaches the caller as a
// *par.PanicError instead of crashing the process, exactly where a
// serial search's panic would surface; the same workspace then solves
// the instance to the serial optimum.
func TestParallelPanicReachesCaller(t *testing.T) {
	m := mesh.MustNew(5, 5)
	model := power.KimHorowitz()
	set := workload.New(m, 77).Uniform(12, 100, 1500)
	w := NewWorkspace()
	want, wantOK, _, err := w.Solve(m, model, set, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, st, err := w.Solve(m, model, set, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks < 2 || st.States <= 4*stopNodeStride {
		t.Fatalf("tasks=%d states=%d: need a parallel split exploring > %d nodes", st.Tasks, st.States, 4*stopNodeStride)
	}
	want = want.Clone()

	var polls atomic.Int32
	func() {
		defer func() {
			r := recover()
			if pe, ok := r.(*par.PanicError); !ok || pe.Value != any("injected") {
				t.Fatalf("recovered %v (%T), want a *par.PanicError carrying the injected value", r, r)
			}
		}()
		w.Solve(m, model, set, Options{Workers: 4, Stop: func() bool {
			if polls.Add(1) == 3 {
				panic("injected")
			}
			return false
		}})
		t.Fatal("Solve returned instead of re-raising the worker panic")
	}()

	got, ok, _, err := w.Solve(m, model, set, Options{Workers: 4})
	if err != nil || ok != wantOK {
		t.Fatalf("solve after the panic: ok=%v err=%v, want ok=%v", ok, err, wantOK)
	}
	if !sameRouting(got, want) {
		t.Fatal("solve after the panic differs from the serial optimum")
	}
}
