// Package experiments contains the harnesses that regenerate every figure
// and table of the paper's evaluation (Section 6), plus the ablations
// catalogued in DESIGN.md. A table experiment is a row type and a row
// function that measures one row on emulated clusters of its own; a Grid
// runs a table's rows on the worker pool and prints them in the paper's
// presentation.
package experiments

import (
	"fmt"
	"slices"

	"lmas/internal/dsmsort"
	"lmas/internal/loadmgr"
)

// Fig9Row is one ASU count of the Figure 9 reproduction: "Speedup achievable
// in DSM-Sort by adaptively configuring the mapping of function to CPUs as
// ASUs are added. Data series represent different configurations (α values)
// of the algorithm. This experiment uses one host, which saturates at 16
// ASUs." The series are Alphas; Spec.Sort.Alpha is not read.
type Fig9Row struct {
	Spec
	Alphas []int
	// Speedups[i] is the run-formation speedup over conventional storage
	// at Alphas[i].
	Speedups []float64
	// Adaptive indexes the α the load manager's predictive model picks for
	// this configuration; the adaptive series is that α's measured point.
	Adaptive int
}

// Fig9 times the first pass (run formation) of DSM-Sort in the active
// configuration and in the conventional baseline ("conventional storage
// units with no integrated processing; all computation occurs on the host")
// at every α, and asks the load manager which α it would configure.
func Fig9(row Fig9Row) (Fig9Row, error) {
	var err error
	row.Speedups, err = speedups(row.Spec, row.Alphas, func(s *Spec, a int) { s.Sort.Alpha = a })
	if err != nil {
		return row, fmt.Errorf("fig9 d=%d: %w", row.Params.ASUs, err)
	}
	row.Adaptive = slices.Index(row.Alphas, loadmgr.ChooseAlpha(row.Params, row.Alphas, row.Sort.Beta))
	return row, nil
}

// CRatioRow is one ASU count of TAB-C, the host/ASU power-ratio sensitivity.
// The paper simulates "ASUs with performance scaled to give c = 4, 8"; the
// row shows how the Figure 9 speedup shifts with c.
type CRatioRow struct {
	Spec
	Cs       []float64
	Speedups []float64 // one per Cs
}

// CRatio measures the active-vs-conventional speedup at every power ratio:
// stronger ASUs (smaller c) reach the crossover with fewer units.
func CRatio(row CRatioRow) (CRatioRow, error) {
	var err error
	row.Speedups, err = speedups(row.Spec, row.Cs, func(s *Spec, c float64) { s.Params.C = c })
	if err != nil {
		return row, fmt.Errorf("cratio d=%d: %w", row.Params.ASUs, err)
	}
	return row, nil
}

// speedups is the run-formation speedup of active over conventional storage
// for s under each axis value, which set applies.
func speedups[V any](s Spec, axis []V, set func(*Spec, V)) ([]float64, error) {
	out := make([]float64, len(axis))
	for i, v := range axis {
		vs := s
		set(&vs, v)
		rs, err := pass1Cells(vs, dsmsort.Conventional, dsmsort.Active)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", v, err)
		}
		out[i] = rs[0].Elapsed.Seconds() / rs[1].Elapsed.Seconds()
	}
	return out, nil
}
