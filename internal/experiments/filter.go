package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/functor"
	"lmas/internal/plot"
	"lmas/internal/records"
	"lmas/internal/route"
)

// FilterOptions parameterizes TAB-FILTER, the canonical active-storage
// win the paper's background motivates: "Filtering and aggregation
// operations performed directly at the ASUs can reduce data movement
// across the interconnect, helping to overcome bandwidth limitations"
// (Section 2). A selection scan keeps the records whose key falls below a
// threshold; executing the filter on the ASUs ships only matches to the
// host, while conventional storage ships everything.
type FilterOptions struct {
	N             int
	ASUs          int
	PacketRecords int
	// Selectivities are the match fractions to sweep.
	Selectivities []float64
	Base          cluster.Params
	Seed          int64
}

// DefaultFilterOptions sweeps from needle-in-haystack to keep-everything.
// The interconnect is deliberately bandwidth-constrained (unlike the
// default SAN, where processors saturate first): filtering at the ASUs
// matters most when shipping everything would saturate the network, the
// regime Section 2 cites.
func DefaultFilterOptions() FilterOptions {
	base := cluster.DefaultParams()
	base.NetBandwidth = 60e6
	return FilterOptions{
		N:             1 << 18,
		ASUs:          16,
		PacketRecords: 64,
		Selectivities: []float64{0.01, 0.1, 0.5, 1.0},
		Base:          base,
		Seed:          42,
	}
}

// FilterCell is one (selectivity, placement) measurement.
type FilterCell struct {
	Selectivity float64
	// ActiveSecs / ConvSecs are the scan times per placement.
	ActiveSecs, ConvSecs float64
	// ActiveNetMB / ConvNetMB are interconnect volumes.
	ActiveNetMB, ConvNetMB float64
	Matches                int64
}

// FilterResult holds the sweep.
type FilterResult struct {
	Options FilterOptions
	Cells   []FilterCell
}

// Table renders the sweep.
func (r *FilterResult) Table() *plot.Table {
	t := plot.NewTable("TAB-FILTER: selection scan, filter on ASUs vs on host",
		"selectivity", "active(s)", "conv(s)", "speedup", "active net(MB)", "conv net(MB)")
	for _, c := range r.Cells {
		t.AddRow(c.Selectivity, c.ActiveSecs, c.ConvSecs, c.ConvSecs/c.ActiveSecs,
			c.ActiveNetMB, c.ConvNetMB)
	}
	return t
}

// RunFilter measures the selection scan at every selectivity in both
// placements, validating match counts against a direct count.
func RunFilter(opt FilterOptions) (*FilterResult, error) {
	res := &FilterResult{Options: opt}
	for _, sel := range opt.Selectivities {
		threshold := records.Key(float64(records.MaxKey) * sel)
		cell := FilterCell{Selectivity: sel}
		for _, onASU := range []bool{true, false} {
			secs, netMB, matches, err := runFilterScan(opt, threshold, onASU)
			if err != nil {
				return nil, fmt.Errorf("filter sel=%g onASU=%v: %w", sel, onASU, err)
			}
			if onASU {
				cell.ActiveSecs, cell.ActiveNetMB = secs, netMB
				cell.Matches = matches
			} else {
				cell.ConvSecs, cell.ConvNetMB = secs, netMB
				if matches != cell.Matches {
					return nil, fmt.Errorf("filter sel=%g: placements disagree: %d vs %d matches",
						sel, cell.Matches, matches)
				}
			}
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

func runFilterScan(opt FilterOptions, threshold records.Key, onASU bool) (secs, netMB float64, matches int64, err error) {
	params := opt.Base
	params.Hosts, params.ASUs = 1, opt.ASUs
	cl := cluster.New(params)

	// Load the data set striped across the ASUs and count expected
	// matches directly (the validation oracle).
	buf := records.Generate(opt.N, params.RecordSize, opt.Seed, records.Uniform{})
	var want int64
	for i := 0; i < opt.N; i++ {
		if buf.Key(i) < threshold {
			want++
		}
	}
	sets, err := stripeSets(cl, buf, opt.PacketRecords)
	if err != nil {
		return 0, 0, 0, err
	}

	pl := functor.NewPipeline(cl)
	newFilter := func() functor.Kernel {
		return functor.Adapt(&functor.Filter{
			Keep: func(k records.Key) bool { return k < threshold },
		}, params.RecordSize, opt.PacketRecords)
	}
	var got int64
	consume := pl.AddStage("consume", cl.Hosts, func() functor.Kernel {
		return &functor.Sink{Label: "matches", Fn: func(ctx *functor.Ctx, pk container.Packet) {
			got += int64(pk.Len())
			pk.Release() // counted, not stored
		}}
	})
	consume.Terminal()
	// The filter stage lives on the ASUs, fed by the scan on its own node, or
	// — conventionally — on the host, which raw blocks reach round-robin.
	nodes := cl.Hosts
	if onASU {
		nodes = cl.ASUs
	}
	filter := pl.AddStage("filter", nodes, newFilter)
	filter.ConnectTo(consume, &route.RoundRobin{})
	for i, set := range sets {
		var toFilter route.Policy = &route.RoundRobin{}
		if onASU {
			toFilter = route.Pin(i)
		}
		pl.AddSource(fmt.Sprintf("read%d", i), cl.ASUs[i], set.Scan(i, false), filter, toFilter)
	}
	elapsed, err := pl.Run()
	if err != nil {
		return 0, 0, 0, err
	}
	if got != want {
		return 0, 0, 0, fmt.Errorf("matched %d records, want %d", got, want)
	}
	var net int64
	for _, asu := range cl.ASUs {
		_, _, sent, _ := asu.NIC.Stats()
		net += sent
	}
	return elapsed.Seconds(), float64(net) / 1e6, got, nil
}
