package experiments

import (
	"errors"
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/onepass"
	"lmas/internal/plot"
	"lmas/internal/records"
)

// OnePassOptions parameterizes TAB-ONEPASS: the NOW-Sort/MinuteSort-style
// one-pass sort (Section 7's related work) against DSM-Sort across input
// sizes. One pass wins while the data fits in the sort nodes' memory and
// cannot run at all beyond it; DSM-Sort pays a second pass but scales.
type OnePassOptions struct {
	Hosts, ASUs int
	// HostMemRecords bounds the sort nodes' memory (kept small so the
	// wall is reachable at emulation-friendly sizes).
	HostMemRecords int
	// Ns are the input sizes to sweep.
	Ns            []int
	PacketRecords int
	Base          cluster.Params
	Seed          int64
}

// DefaultOnePassOptions crosses the memory wall mid-sweep.
func DefaultOnePassOptions() OnePassOptions {
	return OnePassOptions{
		Hosts:          2,
		ASUs:           8,
		HostMemRecords: 1 << 13,
		Ns:             []int{1 << 12, 1 << 13, 1 << 15, 1 << 17},
		PacketRecords:  64,
		Base:           cluster.DefaultParams(),
		Seed:           42,
	}
}

// OnePassCell is one input size's comparison.
type OnePassCell struct {
	N int
	// OnePassSecs is negative when the input exceeds the memory wall.
	OnePassSecs float64
	DSMSecs     float64
}

// OnePassResult holds the sweep.
type OnePassResult struct {
	Options OnePassOptions
	Cells   []OnePassCell
}

// Table renders the sweep.
func (r *OnePassResult) Table() *plot.Table {
	t := plot.NewTable(
		fmt.Sprintf("TAB-ONEPASS: one-pass cluster sort vs DSM-Sort (sort-node memory %d records x %d hosts)",
			r.Options.HostMemRecords, r.Options.Hosts),
		"records", "one-pass(s)", "dsm-sort(s)")
	for _, c := range r.Cells {
		op := "exceeds memory"
		if c.OnePassSecs >= 0 {
			op = fmt.Sprintf("%.3f", c.OnePassSecs)
		}
		t.AddRow(c.N, op, c.DSMSecs)
	}
	return t
}

// RunOnePass measures both sorts at every input size.
func RunOnePass(opt OnePassOptions) (*OnePassResult, error) {
	res := &OnePassResult{Options: opt}
	for _, n := range opt.Ns {
		params := opt.Base
		params.Hosts, params.ASUs = opt.Hosts, opt.ASUs
		params.HostMemRecords = opt.HostMemRecords
		cell := OnePassCell{N: n}

		cl := cluster.New(params)
		in := dsmsort.MakeInput(cl, n, records.Uniform{}, opt.Seed, opt.PacketRecords)
		oneRes, err := onepass.Sort(cl, onepass.Config{
			SampleSize: 2048, PacketRecords: opt.PacketRecords, Seed: opt.Seed,
		}, in)
		var tooLarge *onepass.ErrTooLarge
		switch {
		case err == nil:
			cell.OnePassSecs = oneRes.Elapsed.Seconds()
		case errors.As(err, &tooLarge):
			cell.OnePassSecs = -1
		default:
			return nil, fmt.Errorf("onepass n=%d: %w", n, err)
		}

		dsmRes, err := sortCell(params, n, dsmsort.Config{
			Alpha: 16, Beta: 64, Gamma2: 16, PacketRecords: opt.PacketRecords,
			Placement: dsmsort.Active, Seed: opt.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("dsmsort n=%d: %w", n, err)
		}
		cell.DSMSecs = dsmRes.Elapsed.Seconds()
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}
