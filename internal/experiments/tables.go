package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/plot"
	"lmas/internal/route"
	"lmas/internal/sim"
)

// CRatioOptions parameterizes the host/ASU power-ratio sensitivity table
// (TAB-C). The paper simulates "ASUs with performance scaled to give
// c = 4, 8"; this table shows how the Figure 9 speedups shift with c.
type CRatioOptions struct {
	N             int
	ASUs          []int
	Alpha         int
	Beta          int
	PacketRecords int
	Cs            []float64
	Base          cluster.Params
	Seed          int64
}

// DefaultCRatioOptions mirrors the paper's two ratios.
func DefaultCRatioOptions() CRatioOptions {
	return CRatioOptions{
		N:             1 << 17,
		ASUs:          []int{2, 4, 8, 16, 32},
		Alpha:         64,
		Beta:          64,
		PacketRecords: 32,
		Cs:            []float64{4, 8},
		Base:          cluster.DefaultParams(),
		Seed:          42,
	}
}

// CRatioCell is one measured point of TAB-C.
type CRatioCell struct {
	C       float64
	ASUs    int
	Speedup float64
}

// CRatioResult holds the grid.
type CRatioResult struct {
	Options CRatioOptions
	Cells   []CRatioCell
}

// Cell looks up a measured point.
func (r *CRatioResult) Cell(c float64, asus int) (CRatioCell, bool) {
	for _, cell := range r.Cells {
		if cell.C == c && cell.ASUs == asus {
			return cell, true
		}
	}
	return CRatioCell{}, false
}

// Table renders the grid: rows are ASU counts, one speedup column per c.
func (r *CRatioResult) Table() *plot.Table {
	headers := []string{"ASUs"}
	for _, c := range r.Options.Cs {
		headers = append(headers, fmt.Sprintf("speedup(c=%g)", c))
	}
	t := plot.NewTable(
		fmt.Sprintf("TAB-C: power-ratio sensitivity (alpha=%d)", r.Options.Alpha), headers...)
	for _, d := range r.Options.ASUs {
		row := []any{d}
		for _, c := range r.Options.Cs {
			if cell, ok := r.Cell(c, d); ok {
				row = append(row, cell.Speedup)
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// RunCRatio measures active-vs-conventional speedup across power ratios:
// stronger ASUs (smaller c) reach the crossover with fewer units.
func RunCRatio(opt CRatioOptions) (*CRatioResult, error) {
	res := &CRatioResult{Options: opt}
	for _, c := range opt.Cs {
		for _, d := range opt.ASUs {
			params := opt.Base
			params.Hosts = 1
			params.ASUs = d
			params.C = c
			rs, err := pass1Cells(params, opt.N, dsmsort.Config{
				Alpha: opt.Alpha, Beta: opt.Beta, Gamma2: 2,
				PacketRecords: opt.PacketRecords, Seed: opt.Seed,
			}, dsmsort.Conventional, dsmsort.Active)
			if err != nil {
				return nil, fmt.Errorf("cratio c=%g d=%d: %w", c, d, err)
			}
			res.Cells = append(res.Cells, CRatioCell{C: c, ASUs: d,
				Speedup: rs[0].Elapsed.Seconds() / rs[1].Elapsed.Seconds()})
		}
	}
	return res, nil
}

// GammaOptions parameterizes the merge-split table (TAB-GAMMA): how the
// division of the γ-way merge between ASUs (γ2) and hosts (γ1) balances
// the merge pass. Smaller γ2 forces extra local merge levels on the ASUs;
// larger γ2 does the reduction in one level.
type GammaOptions struct {
	N             int
	Hosts, ASUs   int
	Alpha, Beta   int
	PacketRecords int
	Gamma2s       []int
	Base          cluster.Params
	Seed          int64
}

// DefaultGammaOptions covers one to several local merge levels.
func DefaultGammaOptions() GammaOptions {
	return GammaOptions{
		N:             1 << 16,
		Hosts:         1,
		ASUs:          8,
		Alpha:         8,
		Beta:          64,
		PacketRecords: 64,
		Gamma2s:       []int{2, 4, 8, 16, 32},
		Base:          cluster.DefaultParams(),
		Seed:          42,
	}
}

// GammaCell is one measured merge configuration.
type GammaCell struct {
	Gamma2      int
	MergeSecs   float64
	MergeLevels int
	HostOps     float64
	ASUOps      float64
}

// GammaResult holds the sweep.
type GammaResult struct {
	Options GammaOptions
	Cells   []GammaCell
}

// Table renders the sweep.
func (r *GammaResult) Table() *plot.Table {
	t := plot.NewTable("TAB-GAMMA: merge split between ASUs and hosts",
		"gamma2", "merge(s)", "asu-levels", "hostMops", "asuMops")
	for _, c := range r.Cells {
		t.AddRow(c.Gamma2, c.MergeSecs, c.MergeLevels, c.HostOps/1e6, c.ASUOps/1e6)
	}
	return t
}

// RunGamma sweeps γ2, timing the merge pass over identical run stores.
func RunGamma(opt GammaOptions) (*GammaResult, error) {
	res := &GammaResult{Options: opt}
	for _, g2 := range opt.Gamma2s {
		params := opt.Base
		params.Hosts = opt.Hosts
		params.ASUs = opt.ASUs
		// The full sort is run formation, the timed merge pass, validation.
		sorted, err := sortCell(params, opt.N, dsmsort.Config{
			Alpha: opt.Alpha, Beta: opt.Beta, Gamma2: g2,
			PacketRecords: opt.PacketRecords, Placement: dsmsort.Active, Seed: opt.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("gamma g2=%d: %w", g2, err)
		}
		mr := sorted.Merge
		res.Cells = append(res.Cells, GammaCell{
			Gamma2:      g2,
			MergeSecs:   mr.Elapsed.Seconds(),
			MergeLevels: mr.ASUMergeLevels,
			HostOps:     mr.HostOps,
			ASUOps:      mr.ASUOps,
		})
	}
	return res, nil
}

// RoutingOptions parameterizes the routing ablation (TAB-ROUTE): the
// Figure 10 workload under every routing policy.
type RoutingOptions struct {
	N             int
	Hosts, ASUs   int
	Alpha, Beta   int
	PacketRecords int
	Policies      []string
	Window        sim.Duration
	SkewMean      float64
	Base          cluster.Params
	Seed          int64
}

// DefaultRoutingOptions uses the Figure 10 cluster.
func DefaultRoutingOptions() RoutingOptions {
	f10 := DefaultFig10Options()
	return RoutingOptions{
		N:             f10.N,
		Hosts:         f10.Hosts,
		ASUs:          f10.ASUs,
		Alpha:         f10.Alpha,
		Beta:          f10.Beta,
		PacketRecords: f10.PacketRecords,
		Policies:      []string{"static", "round-robin", "sr", "load-aware"},
		Window:        f10.Window,
		SkewMean:      f10.SkewMean,
		Base:          f10.Base,
		Seed:          f10.Seed,
	}
}

// RoutingCell is one policy's measured outcome.
type RoutingCell struct {
	Policy    string
	Elapsed   sim.Duration
	Imbalance float64
}

// RoutingResult holds the ablation.
type RoutingResult struct {
	Options RoutingOptions
	Cells   []RoutingCell
}

// Table renders the ablation.
func (r *RoutingResult) Table() *plot.Table {
	t := plot.NewTable("TAB-ROUTE: routing policies under skew",
		"policy", "elapsed(s)", "imbalance")
	for _, c := range r.Cells {
		t.AddRow(c.Policy, c.Elapsed.Seconds(), c.Imbalance)
	}
	return t
}

// RunRouting measures every policy on the skewed Figure 10 workload.
func RunRouting(opt RoutingOptions) (*RoutingResult, error) {
	res := &RoutingResult{Options: opt}
	for _, name := range opt.Policies {
		policy, err := route.ByName(name, opt.Alpha, opt.Seed)
		if err != nil {
			return nil, err
		}
		params := opt.Base
		params.Hosts = opt.Hosts
		params.ASUs = opt.ASUs
		params.UtilWindow = opt.Window
		cl := cluster.New(params)
		r1, err := formRuns(cl, opt.N, opt.SkewMean, dsmsort.Config{
			Alpha: opt.Alpha, Beta: opt.Beta, Gamma2: 2,
			PacketRecords: opt.PacketRecords, Placement: dsmsort.Active,
			SortPolicy: policy, Seed: opt.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("routing %s: %w", name, err)
		}
		_, imbalance := hostImbalance(cl, r1.Elapsed)
		res.Cells = append(res.Cells, RoutingCell{Policy: name, Elapsed: r1.Elapsed, Imbalance: imbalance})
	}
	return res, nil
}
