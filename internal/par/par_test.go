package par

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func noScratch(int) struct{} { return struct{}{} }

// Every task runs exactly once, whatever the worker count, and each
// worker builds its scratch once with an index below min(workers, n).
func TestRunEveryTaskOnce(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 2, 3, 8, n + 5} {
		ran := make([]atomic.Int32, n)
		var mu sync.Mutex
		built := make(map[int]int)
		err := Run(n, workers, nil,
			func(w int) int {
				mu.Lock()
				built[w]++
				mu.Unlock()
				return w
			},
			func(_ int, task int) error {
				ran[task].Add(1)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Errorf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
		for w, c := range built {
			if w < 0 || w >= min(workers, n) || c != 1 {
				t.Errorf("workers=%d: scratch %d built %d times", workers, w, c)
			}
		}
	}
}

// The first error stops dispatch and is the one returned.
func TestRunFirstErrorStopsDispatch(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := Run(1000, workers, nil, noScratch, func(_ struct{}, task int) error {
			ran.Add(1)
			if task == 7 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if c := ran.Load(); c >= 1000 {
			t.Errorf("workers=%d: all %d tasks ran despite the error", workers, c)
		}
	}
}

// An external halt stops dispatch without an error of its own.
func TestRunHaltStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var halted atomic.Bool
		var ran atomic.Int32
		err := Run(1000, workers, halted.Load, noScratch, func(struct{}, int) error {
			if ran.Add(1) == 10 {
				halted.Store(true)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if c := ran.Load(); c >= 1000 {
			t.Errorf("workers=%d: halt did not stop dispatch", workers)
		}
	}
}

// A panic in a task comes back as a typed *PanicError carrying the
// value, on the serial path and on the pool alike.
func TestRunPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Run(100, workers, nil, noScratch, func(_ struct{}, task int) error {
			if task == 3 {
				panic("injected")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v (%T), want *PanicError", workers, err, err)
		}
		if pe.Value != "injected" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError{Value: %v, %d stack bytes}", workers, pe.Value, len(pe.Stack))
		}
	}
}

// A worker blocked on one task does not hold back the rest: the other
// worker runs every remaining task while the first is still blocked.
func TestRunBlockedWorkerDoesNotHoldBackOthers(t *testing.T) {
	const n = 8
	release := make(chan struct{})
	var others atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- Run(n, 2, nil, noScratch, func(_ struct{}, task int) error {
			if task == 0 {
				<-release
				return nil
			}
			if others.Add(1) == n-1 {
				close(release)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("pool stalled behind the blocked task: %d of %d other tasks ran", others.Load(), n-1)
	}
}
