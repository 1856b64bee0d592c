package experiments

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// Cancelling the sweep's context mid-run halts the workers promptly,
// returns the context's error, and leaves the sinks holding an in-order
// prefix with End never called — the checkpoint contract interrupted
// runs resume from.
func TestSweepContextCancelStopsEarly(t *testing.T) {
	sp := smokeSpec()
	sp.Trials = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var trials atomic.Int64
	rs := &recordSink{}
	err := Sweep(sp, SweepOptions{Workers: 2, Context: ctx, TrialStart: func(_, _ int) {
		if trials.Add(1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	}}, rs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rs.ended {
		t.Error("End was called on a cancelled sweep")
	}
	if total := int64(len(sp.Points) * sp.Trials); trials.Load() >= total {
		t.Errorf("cancelled sweep still ran all %d trials", total)
	}
	for i, pr := range rs.points {
		if pr.Index != i {
			t.Fatalf("cancelled sweep released point %d at position %d", pr.Index, i)
		}
	}
}

// A context that is already dead runs nothing: no trials, no points, no
// End — just the context's error.
func TestSweepAlreadyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var trials atomic.Int64
	rs := &recordSink{}
	err := Sweep(smokeSpec(), SweepOptions{Context: ctx, TrialStart: func(_, _ int) {
		trials.Add(1)
	}}, rs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := trials.Load(); n != 0 {
		t.Errorf("dead-on-arrival context still ran %d trials", n)
	}
	if len(rs.points) != 0 || rs.ended {
		t.Errorf("dead-on-arrival context streamed %d points (ended=%v)", len(rs.points), rs.ended)
	}
}

// Gap sweeps stream through the same loop and cancel the same way: a dead
// context runs no trial, streams no point and never calls End.
func TestOptGapAlreadyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var trials atomic.Int64
	gr := &recordSink{}
	err := OptGap(gapSpec(), SweepOptions{Context: ctx, TrialStart: func(_, _ int) {
		trials.Add(1)
	}}, 0, gr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := trials.Load(); n != 0 {
		t.Errorf("dead-on-arrival context still ran %d trials", n)
	}
	if len(gr.points) != 0 || gr.ended {
		t.Errorf("dead-on-arrival context streamed %d points (ended=%v)", len(gr.points), gr.ended)
	}
}

// Carrying a context that never fires is invisible in the output: the
// streamed CSV is byte-identical to a sweep without one.
func TestSweepUncancelledContextByteIdentical(t *testing.T) {
	sp := smokeSpec()
	want := runCSV(t, sp, 0)
	var pow, fail bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := Sweep(sp, SweepOptions{Context: ctx}, NewCSVSink(&pow, &fail)); err != nil {
		t.Fatal(err)
	}
	if pow.String() != want {
		t.Error("an uncancelled context changed the streamed CSV")
	}
}

// A panic on a sweep worker — here injected through the TrialStart fault
// hook — fails the sweep with a typed PanicError instead of crashing the
// process.
func TestSweepWorkerPanicBecomesError(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	err := Sweep(smokeSpec(), SweepOptions{Workers: 4, TrialStart: func(_, _ int) {
		if armed.CompareAndSwap(true, false) {
			panic("injected fault")
		}
	}}, &recordSink{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != any("injected fault") {
		t.Errorf("panic value %v, want the injected fault", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured at recovery")
	}
}
