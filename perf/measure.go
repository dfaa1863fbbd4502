package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"lmas/internal/bufpool"
)

// procStart is as close to process start as Go code gets; setup_s of the
// first set-up is measured from it.
var procStart = time.Now()

// hostCost is what one timed call cost the emulation host.
type hostCost struct {
	hostMs    float64
	cpuMs     float64 // process user+sys, all threads
	allocB    uint64
	mallocs   uint64
	gcPauseNs uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timeCall measures fn from outside: wall clock, process CPU time and the
// allocator's counters, read immediately before and after the call.
func timeCall(fn func() error) (hostCost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&m1)
	return hostCost{
		hostMs:    float64(wall) / 1e6,
		cpuMs:     float64(cpu) / 1e6,
		allocB:    m1.TotalAlloc - m0.TotalAlloc,
		mallocs:   m1.Mallocs - m0.Mallocs,
		gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}, err
}

// measurement is the outcome of one run's timed window.
type measurement struct {
	setups      []float64 // seconds, one per set-up
	costs       []hostCost
	virtualNs   int64
	fingerprint string
	// fingerprintChanges counts timed iterations whose report hash differs
	// from the first iteration's.
	fingerprintChanges int
	attempted, failed  int
	failures           []string
	// outstanding is the buffer pool's unreturned-buffer count after the
	// leak-check iteration.
	outstanding int
	// observed iterations only
	traceEvents int
	storeBytes  int64
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// setUp is one set-up: warm-up iterations so the buffer, scratch and proc
// pools and the heap are filled, then a GC. The workload spec itself was
// built by the caller inside the same span.
func setUp(r *runner, sz sizes) error {
	for i := 0; i < sz.warmups; i++ {
		if _, err := r.iterate(); err != nil {
			return fmt.Errorf("warm-up %d: %w", i, err)
		}
		if _, err := r.sweepStore(); err != nil {
			return err
		}
	}
	runtime.GC()
	return nil
}

// checkIteration folds one iteration's outcome into m: errors, the
// determinism guard (virtual time and report hash must equal the first
// iteration's) and the observer counts.
func (m *measurement) checkIteration(res iterResult, err error) {
	m.attempted++
	if err != nil {
		m.fail("iteration %d: %v", m.attempted, err)
		return
	}
	fp, err := fingerprint(res.report)
	if err != nil {
		m.fail("iteration %d: fingerprint: %v", m.attempted, err)
		return
	}
	if m.fingerprint == "" {
		m.fingerprint, m.virtualNs = fp, res.virtualNs
		m.traceEvents = res.traceEvents
		return
	}
	if fp != m.fingerprint || res.virtualNs != m.virtualNs {
		m.fingerprintChanges++
		m.fail("iteration %d: sim_fingerprint %s (virtual %d ns) differs from first %s (%d ns)",
			m.attempted, fp[:12], res.virtualNs, m.fingerprint[:12], m.virtualNs)
	}
}

// measure runs set-up sz.setupReps times, then iterates the workload in a
// closed loop (one client, this goroutine) until window has passed and at
// least sz.minIters iterations are timed. The loop gives up at four windows.
func measure(name string, sz sizes, seed int64, window time.Duration) (*measurement, *workload, error) {
	m := &measurement{}
	var (
		w *workload
		r *runner
	)
	for rep := 0; rep < sz.setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = procStart
		} else if err := r.close(); err != nil {
			return nil, nil, err
		}
		var err error
		if w, err = buildWorkload(name, sz, seed); err != nil {
			return nil, nil, err
		}
		if r, err = newRunner(w, w.observed); err != nil {
			return nil, nil, err
		}
		if err := setUp(r, sz); err != nil {
			_ = r.close() // best effort: the set-up error is the one to report
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	defer r.close()

	start := time.Now()
	for {
		elapsed := time.Since(start)
		if elapsed >= window && len(m.costs) >= sz.minIters {
			break
		}
		if elapsed >= 4*window {
			return nil, nil, fmt.Errorf("%s: only %d timed iterations in %.0f s, need %d",
				name, len(m.costs), elapsed.Seconds(), sz.minIters)
		}
		var res iterResult
		cost, err := timeCall(func() (err error) {
			res, err = r.iterate()
			return err
		})
		bytes, sweepErr := r.sweepStore()
		if err == nil {
			err = sweepErr
		}
		m.checkIteration(res, err)
		if err == nil {
			m.costs = append(m.costs, cost)
			m.storeBytes = bytes
		}
	}
	m.leakCheck(w)
	return m, w, nil
}

// leakCheck runs one more, untimed iteration of a sort workload on a bare
// cluster under the buffer pool's debug mode, frees what the harness owns and
// counts any buffer that did not come home as a failed iteration.
// (RunSortReport keeps its input, so the leak check cannot wrap it.)
func (m *measurement) leakCheck(w *workload) {
	if w.sort == nil {
		return
	}
	m.attempted++
	prev := bufpool.SetDebug(true)
	defer bufpool.SetDebug(prev)
	if _, err := bareSort(w.sort, nil, false); err != nil {
		m.fail("leak-check iteration: %v", err)
		return
	}
	m.outstanding = bufpool.Outstanding()
	if err := bufpool.LeakCheck(); err != nil {
		m.fail("leak-check iteration: %v", err)
	}
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs at q in [0,1].
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method the driver uses); with fewer than two values all three are the value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

func column(costs []hostCost, f func(hostCost) float64) []float64 {
	out := make([]float64, len(costs))
	for i, c := range costs {
		out[i] = f(c)
	}
	return out
}
