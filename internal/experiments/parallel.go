package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Experiment sweeps are embarrassingly parallel: every cell builds its own
// cluster, simulator, and telemetry registry, and shares no mutable state
// with its siblings (process-wide scratch pools are concurrency-safe).
// Running cells on a bounded worker pool therefore changes wall-clock time
// only; virtual-time results — and the bytes of every emitted report — are
// identical to a serial sweep, because each cell is a pure function of its
// spec and results are collected in cell order.

// runCells computes cell(i) for every i in [0, n) on up to jobs concurrent
// workers (jobs < 1 = one per available CPU) and returns the results in cell
// order. All cells run to completion even when some fail (a serial sweep
// stops at the first); the error returned is the first in cell order, not
// completion order, so failures are as deterministic as results.
func runCells[T any](n, jobs int, cell func(i int) (T, error)) ([]T, error) {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	if min(jobs, n) <= 1 {
		for i := range out {
			var err error
			if out[i], err = cell(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(jobs, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
