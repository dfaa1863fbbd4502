package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/plot"
)

// Spec is the emulated system and DSM-Sort configuration a table row runs:
// Params holds the host and ASU counts and the power ratio c, N the input
// size, Sort α, β, γ2, the packet size and the row's workload seed.
type Spec struct {
	Params cluster.Params
	N      int
	Sort   dsmsort.Config
}

// NewSpec is where the sort tables' rows start: the default cluster with one
// host and asus ASUs, n records, and DSM-Sort at the given α and packet size
// with β=64, γ2=2 and seed 42.
func NewSpec(n, asus, alpha, packetRecords int) Spec {
	p := cluster.DefaultParams()
	p.ASUs = asus
	return Spec{Params: p, N: n, Sort: dsmsort.Config{
		Alpha: alpha, Beta: 64, Gamma2: 2, PacketRecords: packetRecords, Seed: 42,
	}}
}

// Grid is one table experiment: its rows, the row function that measures
// one, and how the measured rows print. A row carries its inputs, seed
// included, and the row function returns it with its measurements filled in.
type Grid[R any] struct {
	Title   func(rows []R) string // may read the measured rows
	Headers []string
	Rows    []R
	Measure func(R) (R, error)
	Cells   func(R) []any // one measured row's table cells
}

// Run measures every row on up to jobs concurrent workers (< 1: one per CPU)
// and prints the table to w. The rows come back in axis order.
func (g Grid[R]) Run(w io.Writer, jobs int) ([]R, error) {
	rows, err := runCells(len(g.Rows), jobs, func(i int) (R, error) { return g.Measure(g.Rows[i]) })
	if err != nil {
		return nil, err
	}
	t := plot.NewTable(g.Title(rows), g.Headers...)
	for _, r := range rows {
		t.AddRow(g.Cells(r)...)
	}
	_, err = fmt.Fprintln(w, t)
	return rows, err
}

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
