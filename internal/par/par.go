// Package par is the one worker pool behind the parallel engines: the
// sweep engine's (point, trial) chunks and the exact solver's subtree
// tasks. Every task exists before the first worker starts, so a shared
// "next task" cursor balances the load as well as work stealing would:
// a worker stalled on one slow task never holds back the others, which
// keep taking the next index.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered on a worker goroutine, converted into
// Run's error so one panicking task (a solver bug, a fault-injection
// hook) fails the run instead of crashing the process. Callers detect
// it with errors.As; the serving layer counts these separately from
// ordinary failures.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the worker's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker panic: %v", e.Value)
}

// Run executes tasks 0..n-1 on up to workers persistent goroutines (on
// the caller when there is one worker) and returns the first error. Each
// worker builds its scratch once, with its index in [0, min(workers, n)),
// and keeps it for its lifetime. Workers take task indices from one
// shared cursor, so dispatch follows index order. The first error, or
// halt (when non-nil) reporting true, stops dispatch; tasks already
// running finish. A panic in scratch or run is returned as *PanicError.
func Run[S any](n, workers int, halt func() bool, scratch func(worker int) S, run func(s S, task int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
			failed.Store(true)
		}
		mu.Unlock()
	}
	work := func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				fail(&PanicError{Value: r, Stack: debug.Stack()})
			}
		}()
		s := scratch(worker)
		for !failed.Load() && (halt == nil || !halt()) {
			t := int(next.Add(1) - 1)
			if t >= n {
				return
			}
			if err := run(s, t); err != nil {
				fail(err)
				return
			}
		}
	}
	if workers <= 1 {
		work(0)
		return first
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
	return first
}
