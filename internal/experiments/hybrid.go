package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/plot"
)

// HybridOptions parameterizes TAB-HYBRID: the functor-migration placement
// ("load management may... migrate functors between host nodes and ASUs",
// Section 3.3) against the two static placements across the Figure 9
// x-axis.
type HybridOptions struct {
	N             int
	ASUs          []int
	Alpha, Beta   int
	PacketRecords int
	Base          cluster.Params
	Seed          int64
}

// DefaultHybridOptions covers the regimes where each placement wins.
func DefaultHybridOptions() HybridOptions {
	return HybridOptions{
		N:             1 << 18,
		ASUs:          []int{2, 8, 16, 64},
		Alpha:         64,
		Beta:          64,
		PacketRecords: 32,
		Base:          cluster.DefaultParams(),
		Seed:          42,
	}
}

// HybridCell is one ASU count's three-way comparison, as speedups relative
// to the conventional placement.
type HybridCell struct {
	ASUs    int
	Active  float64
	Hybrid  float64
	HostOps float64 // host distribute share under hybrid (fraction of records)
}

// HybridResult holds the sweep.
type HybridResult struct {
	Options HybridOptions
	Cells   []HybridCell
}

// Table renders the comparison.
func (r *HybridResult) Table() *plot.Table {
	t := plot.NewTable(
		fmt.Sprintf("TAB-HYBRID: functor migration (alpha=%d; speedups vs conventional)", r.Options.Alpha),
		"ASUs", "active", "hybrid", "hybrid dist. on hosts")
	for _, c := range r.Cells {
		t.AddRow(c.ASUs, c.Active, c.Hybrid, fmt.Sprintf("%.0f%%", 100*c.HostOps))
	}
	return t
}

// RunHybrid measures all three placements per ASU count.
func RunHybrid(opt HybridOptions) (*HybridResult, error) {
	res := &HybridResult{Options: opt}
	for _, d := range opt.ASUs {
		params := opt.Base
		params.Hosts, params.ASUs = 1, d
		rs, err := pass1Cells(params, opt.N, dsmsort.Config{
			Alpha: opt.Alpha, Beta: opt.Beta, Gamma2: 2,
			PacketRecords: opt.PacketRecords, Seed: opt.Seed,
		}, dsmsort.Conventional, dsmsort.Active, dsmsort.Hybrid)
		if err != nil {
			return nil, fmt.Errorf("hybrid d=%d: %w", d, err)
		}
		conv := rs[0].Elapsed.Seconds()
		res.Cells = append(res.Cells, HybridCell{
			ASUs:    d,
			Active:  conv / rs[1].Elapsed.Seconds(),
			Hybrid:  conv / rs[2].Elapsed.Seconds(),
			HostOps: rs[2].HybridHostShare,
		})
	}
	return res, nil
}
