// Package experiments contains the harnesses that regenerate every figure
// and table of the paper's evaluation (Section 6), plus the ablations
// catalogued in DESIGN.md. Each harness builds emulated clusters, runs
// DSM-Sort (or another workload) on them, and returns both structured
// results and a formatted table matching the paper's presentation.
package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/loadmgr"
	"lmas/internal/plot"
)

// Fig9Options parameterizes the Figure 9 reproduction: "Speedup achievable
// in DSM-Sort by adaptively configuring the mapping of function to CPUs as
// ASUs are added. Data series represent different configurations (α values)
// of the algorithm. This experiment uses one host, which saturates at 16
// ASUs."
type Fig9Options struct {
	// N is the input size in records.
	N int
	// ASUs are the x-axis points (paper: 2..64).
	ASUs []int
	// Alphas are the data series (paper: 1, 4, 16, 64, 256).
	Alphas []int
	// Beta is the run length.
	Beta int
	// PacketRecords sizes interconnect packets.
	PacketRecords int
	// C is the host/ASU power ratio (paper: 8 for this figure).
	C float64
	// Hosts is the host count (paper: 1).
	Hosts int
	// Base supplies the remaining cluster parameters.
	Base cluster.Params
	// Seed drives workload generation.
	Seed int64
}

// DefaultFig9Options mirrors the paper's setup at an input size that keeps
// the emulation quick.
func DefaultFig9Options() Fig9Options {
	return Fig9Options{
		N:             1 << 18,
		ASUs:          []int{2, 4, 8, 16, 32, 64},
		Alphas:        []int{1, 4, 16, 64, 256},
		Beta:          64,
		PacketRecords: 32,
		C:             8,
		Hosts:         1,
		Base:          cluster.DefaultParams(),
		Seed:          42,
	}
}

// Fig9Cell is one measured point.
type Fig9Cell struct {
	ASUs     int
	Alpha    int
	Adaptive bool
	Speedup  float64
	// ActiveSecs / BaselineSecs are the elapsed virtual times.
	ActiveSecs, BaselineSecs float64
}

// Fig9Result holds the full grid.
type Fig9Result struct {
	Options Fig9Options
	Cells   []Fig9Cell
}

// Cell returns the measured point for (asus, alpha); adaptive=true selects
// the adaptive series.
func (r *Fig9Result) Cell(asus, alpha int, adaptive bool) (Fig9Cell, bool) {
	for _, c := range r.Cells {
		if c.ASUs == asus && c.Adaptive == adaptive && (adaptive || c.Alpha == alpha) {
			return c, true
		}
	}
	return Fig9Cell{}, false
}

// Table renders the grid in the paper's orientation: one row per ASU count,
// one column per α series plus the adaptive series.
func (r *Fig9Result) Table() *plot.Table {
	headers := []string{"ASUs"}
	for _, a := range r.Options.Alphas {
		headers = append(headers, fmt.Sprintf("a=%d", a))
	}
	headers = append(headers, "adaptive")
	t := plot.NewTable("Figure 9: DSM-Sort run-formation speedup vs. conventional storage", headers...)
	for _, d := range r.Options.ASUs {
		row := []any{d}
		for _, a := range r.Options.Alphas {
			c, ok := r.Cell(d, a, false)
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, c.Speedup)
		}
		if c, ok := r.Cell(d, 0, true); ok {
			row = append(row, fmt.Sprintf("%.3f (a=%d)", c.Speedup, c.Alpha))
		} else {
			row = append(row, "-")
		}
		t.AddRow(row...)
	}
	return t
}

// RunFig9 measures the full grid. For each ASU count and α it times the
// first pass (run formation) of DSM-Sort in the active configuration and in
// the conventional baseline ("conventional storage units with no integrated
// processing; all computation occurs on the host"), reporting the ratio.
// The adaptive series picks α per ASU count with the load manager's
// predictive model.
func RunFig9(opt Fig9Options) (*Fig9Result, error) {
	res := &Fig9Result{Options: opt}
	for _, d := range opt.ASUs {
		params := opt.Base
		params.Hosts = opt.Hosts
		params.ASUs = d
		params.C = opt.C

		for _, alpha := range opt.Alphas {
			rs, err := pass1Cells(params, opt.N, dsmsort.Config{
				Alpha: alpha, Beta: opt.Beta, Gamma2: 2,
				PacketRecords: opt.PacketRecords, Seed: opt.Seed,
			}, dsmsort.Conventional, dsmsort.Active)
			if err != nil {
				return nil, fmt.Errorf("fig9 d=%d alpha=%d: %w", d, alpha, err)
			}
			b, a := rs[0].Elapsed.Seconds(), rs[1].Elapsed.Seconds()
			res.Cells = append(res.Cells, Fig9Cell{
				ASUs: d, Alpha: alpha,
				Speedup:      b / a,
				ActiveSecs:   a,
				BaselineSecs: b,
			})
		}
		// Adaptive series: the load manager predicts the best α for this
		// configuration; its cell is that α's measured point.
		adaptive, _ := res.Cell(d, loadmgr.ChooseAlpha(params, opt.Alphas, opt.Beta), false)
		adaptive.Adaptive = true
		res.Cells = append(res.Cells, adaptive)
	}
	return res, nil
}
