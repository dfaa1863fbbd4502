package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/plot"
	"lmas/internal/rtree"
	"lmas/internal/sim"
	"lmas/internal/terraflow"
)

// TerraOptions parameterizes TAB-TERRA: the TerraFlow watershed phase
// breakdown with and without active storage. Steps 1 and 2 parallelize
// onto ASUs; step 3 (time-forward processing) does not — "data parallelism
// in ASUs may improve the first two steps of the watershed computation
// considerably while offering limited improvement of the final step."
type TerraOptions struct {
	W, H   int
	Basins int
	ASUs   int
	Base   cluster.Params
	Seed   int64
}

// DefaultTerraOptions uses a terrain large enough for phase times to
// dominate startup transients.
func DefaultTerraOptions() TerraOptions {
	return TerraOptions{
		W: 256, H: 256,
		Basins: 6,
		ASUs:   8,
		Base:   cluster.DefaultParams(),
		Seed:   42,
	}
}

// TerraRun is one placement's phase breakdown.
type TerraRun struct {
	Placement   string
	Restructure sim.Duration
	Sort        sim.Duration
	Watershed   sim.Duration
	FlowAccum   sim.Duration
	Total       sim.Duration
	Watersheds  int
}

// TerraResult holds both placements.
type TerraResult struct {
	Options      TerraOptions
	Active       TerraRun
	Conventional TerraRun
}

// Table renders the phase breakdown.
func (r *TerraResult) Table() *plot.Table {
	t := plot.NewTable(
		fmt.Sprintf("TAB-TERRA: watershed phases, %dx%d grid, %d ASUs",
			r.Options.W, r.Options.H, r.Options.ASUs),
		"placement", "restructure(s)", "sort(s)", "watershed(s)", "flow(s)", "total(s)")
	for _, run := range []TerraRun{r.Conventional, r.Active} {
		t.AddRow(run.Placement,
			run.Restructure.Seconds(), run.Sort.Seconds(),
			run.Watershed.Seconds(), run.FlowAccum.Seconds(), run.Total.Seconds())
	}
	return t
}

// RunTerra measures both placements on the same synthetic terrain; both
// runs are internally validated against the reference watershed labeling.
func RunTerra(opt TerraOptions) (*TerraResult, error) {
	res := &TerraResult{Options: opt}
	runOne := func(placement dsmsort.Placement) (TerraRun, error) {
		params := opt.Base
		params.Hosts = 1
		params.ASUs = opt.ASUs
		params.RecordSize = terraflow.CellRecordSize
		cl := cluster.New(params)
		g, _ := terraflow.SyntheticBasins(opt.W, opt.H, opt.Basins, 10, opt.Seed)
		topt := terraflow.DefaultOptions()
		topt.Placement = placement
		topt.Flow = true
		r, err := terraflow.Run(cl, g, topt)
		if err != nil {
			return TerraRun{}, fmt.Errorf("terra %v: %w", placement, err)
		}
		return TerraRun{
			Placement:   placement.String(),
			Restructure: r.Restructure,
			Sort:        r.Sort,
			Watershed:   r.Watershed,
			FlowAccum:   r.FlowAccum,
			Total:       r.Total(),
			Watersheds:  r.Watersheds,
		}, nil
	}
	var err error
	if res.Active, err = runOne(dsmsort.Active); err != nil {
		return nil, err
	}
	if res.Conventional, err = runOne(dsmsort.Conventional); err != nil {
		return nil, err
	}
	return res, nil
}

// RTreeOptions parameterizes TAB-RTREE: partition vs stripe organizations
// (Figure 5) measured on single-query latency and concurrent throughput.
type RTreeOptions struct {
	Entries int
	Fanout  int
	ASUs    int
	// WideQuery side length (latency probe: a large scan).
	WideSide float64
	// SmallSide is the concurrent-query side length (server workload).
	SmallSide float64
	NumSmall  int
	Clients   int
	// HotFrac is the fraction of server queries landing in one hot
	// region (for the replication column).
	HotFrac float64
	// Replicas is the replication degree for the hybrid organization.
	Replicas int
	Base     cluster.Params
	Seed     int64
}

// DefaultRTreeOptions mirrors the Section 4.2 discussion.
func DefaultRTreeOptions() RTreeOptions {
	return RTreeOptions{
		Entries:   1 << 14,
		Fanout:    16,
		ASUs:      8,
		WideSide:  0.8,
		SmallSide: 0.02,
		NumSmall:  128,
		Clients:   8,
		HotFrac:   0.9,
		Replicas:  2,
		Base:      cluster.DefaultParams(),
		Seed:      42,
	}
}

// RTreeRun is one organization's measurements. P50/P99 are per-query
// latency quantiles of the uniform server workload, from the cluster's
// deterministic latency histogram.
type RTreeRun struct {
	Mode        string
	WideLatency sim.Duration
	QPS         float64
	HotQPS      float64
	P50, P99    sim.Duration
}

// RTreeResult holds all three organizations.
type RTreeResult struct {
	Options    RTreeOptions
	Partition  RTreeRun
	Stripe     RTreeRun
	Replicated RTreeRun
}

// Table renders the comparison.
func (r *RTreeResult) Table() *plot.Table {
	t := plot.NewTable(
		fmt.Sprintf("TAB-RTREE: distributed R-tree organizations, %d entries, %d ASUs",
			r.Options.Entries, r.Options.ASUs),
		"organization", "wide-scan latency(ms)", "uniform qps", "hot-spot qps", "p50(ms)", "p99(ms)")
	for _, run := range []RTreeRun{r.Partition, r.Stripe, r.Replicated} {
		t.AddRow(run.Mode, run.WideLatency.Seconds()*1e3, run.QPS, run.HotQPS,
			run.P50.Seconds()*1e3, run.P99.Seconds()*1e3)
	}
	return t
}

// RunRTree measures all three organizations on a wide scan (latency), a
// uniform server workload, and a hot-spot server workload; every query's
// results are validated against brute force.
func RunRTree(opt RTreeOptions) (*RTreeResult, error) {
	res := &RTreeResult{Options: opt}
	entries := rtree.GenerateEntries(opt.Entries, 0.005, opt.Seed)
	wide := rtree.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.1 + opt.WideSide, MaxY: 0.1 + opt.WideSide}
	small := rtree.GenerateQueries(opt.NumSmall, opt.SmallSide, opt.Seed+1)
	hotRegion := rtree.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.45, MaxY: 0.45}
	hot := rtree.GenerateHotQueries(opt.NumSmall, opt.SmallSide, hotRegion, opt.HotFrac, opt.Seed+2)
	runOne := func(mk func() *rtree.Distributed, name string) (RTreeRun, error) {
		_, lat, err := mk().QueryOnce(wide)
		if err != nil {
			return RTreeRun{}, fmt.Errorf("rtree %s latency: %w", name, err)
		}
		dtUniform := mk()
		_, qps, err := dtUniform.Throughput(small, opt.Clients)
		if err != nil {
			return RTreeRun{}, fmt.Errorf("rtree %s throughput: %w", name, err)
		}
		qlat := dtUniform.Cluster().Telemetry.Latency("rtree.query.latency")
		_, hqps, err := mk().Throughput(hot, opt.Clients)
		if err != nil {
			return RTreeRun{}, fmt.Errorf("rtree %s hot throughput: %w", name, err)
		}
		return RTreeRun{
			Mode: name, WideLatency: lat, QPS: qps, HotQPS: hqps,
			P50: sim.Duration(qlat.Quantile(0.50)),
			P99: sim.Duration(qlat.Quantile(0.99)),
		}, nil
	}
	newCl := func() *cluster.Cluster {
		params := opt.Base
		params.Hosts = 1
		params.ASUs = opt.ASUs
		run, err := startRun(params, observers{}, "", 0, nil)
		if err != nil {
			panic(err) // as cluster.New does for invalid Params
		}
		return run.cl
	}
	var err error
	res.Partition, err = runOne(func() *rtree.Distributed {
		return rtree.NewDistributed(newCl(), entries, opt.Fanout, rtree.Partition)
	}, "partition")
	if err != nil {
		return nil, err
	}
	res.Stripe, err = runOne(func() *rtree.Distributed {
		return rtree.NewDistributed(newCl(), entries, opt.Fanout, rtree.Stripe)
	}, "stripe")
	if err != nil {
		return nil, err
	}
	res.Replicated, err = runOne(func() *rtree.Distributed {
		return rtree.NewReplicated(newCl(), entries, opt.Fanout, opt.Replicas)
	}, fmt.Sprintf("replicated(x%d)", opt.Replicas))
	if err != nil {
		return nil, err
	}
	return res, nil
}
