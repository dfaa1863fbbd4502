package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/rtree"
	"lmas/internal/sim"
	"lmas/internal/terraflow"
)

// TerraRow is one placement of TAB-TERRA, the TerraFlow watershed phase
// breakdown on a W×H synthetic terrain. Steps 1 and 2 parallelize onto ASUs;
// step 3 (time-forward processing) does not — "data parallelism in ASUs may
// improve the first two steps of the watershed computation considerably
// while offering limited improvement of the final step."
type TerraRow struct {
	Params    cluster.Params
	Placement dsmsort.Placement
	W, H      int
	Seed      int64

	Restructure, Sort, Watershed, FlowAccum sim.Duration
	Watersheds                              int
}

// Terra runs all three steps plus flow accumulation on a six-basin terrain;
// the run is validated against the reference watershed labeling.
func Terra(row TerraRow) (TerraRow, error) {
	params := row.Params
	params.RecordSize = terraflow.CellRecordSize
	g, _ := terraflow.SyntheticBasins(row.W, row.H, 6, 10, row.Seed)
	opt := terraflow.DefaultOptions()
	opt.Placement, opt.Flow = row.Placement, true
	r, err := terraflow.Run(cluster.New(params), g, opt)
	if err != nil {
		return row, fmt.Errorf("terra %v: %w", row.Placement, err)
	}
	row.Restructure, row.Sort, row.Watershed, row.FlowAccum = r.Restructure, r.Sort, r.Watershed, r.FlowAccum
	row.Watersheds = r.Watersheds
	return row, nil
}

// RTreeRow is one organization of TAB-RTREE, partition vs stripe (Figure 5)
// and the replicated hybrid: Entries rectangles indexed across Params' ASUs,
// measured on a wide scan's latency and on 128 small queries from eight
// concurrent clients, uniform and with 90% in one hot region. Replicas is
// the Replicated organization's replication degree.
type RTreeRow struct {
	Params   cluster.Params
	Mode     rtree.Mode
	Replicas int
	Entries  int
	Seed     int64

	WideLatency sim.Duration
	QPS, HotQPS float64
	// P50/P99 are per-query latency quantiles of the uniform load, from the
	// cluster's deterministic latency histogram.
	P50, P99 sim.Duration
}

// RTree measures the organization, each workload on a fresh cluster; every
// query's results are validated against brute force.
func RTree(row RTreeRow) (RTreeRow, error) {
	const fanout, queries, side, clients = 16, 128, 0.02, 8
	entries := rtree.GenerateEntries(row.Entries, 0.005, row.Seed)
	var dts [3]*rtree.Distributed // wide scan, uniform load, hot spot
	for i := range dts {
		run, err := startRun(row.Params, observers{}, "", 0, nil)
		if err != nil {
			return row, fmt.Errorf("rtree %v: %w", row.Mode, err)
		}
		if row.Mode == rtree.Replicated {
			dts[i] = rtree.NewReplicated(run.cl, entries, fanout, row.Replicas)
		} else {
			dts[i] = rtree.NewDistributed(run.cl, entries, fanout, row.Mode)
		}
	}
	var err error
	if _, row.WideLatency, err = dts[0].QueryOnce(rtree.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9}); err != nil {
		return row, fmt.Errorf("rtree %v latency: %w", row.Mode, err)
	}
	if _, row.QPS, err = dts[1].Throughput(rtree.GenerateQueries(queries, side, row.Seed+1), clients); err != nil {
		return row, fmt.Errorf("rtree %v throughput: %w", row.Mode, err)
	}
	qlat := dts[1].Cluster().Telemetry.Latency("rtree.query.latency")
	row.P50, row.P99 = sim.Duration(qlat.Quantile(0.50)), sim.Duration(qlat.Quantile(0.99))
	hotRegion := rtree.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.45, MaxY: 0.45}
	hot := rtree.GenerateHotQueries(queries, side, hotRegion, 0.9, row.Seed+2)
	if _, row.HotQPS, err = dts[2].Throughput(hot, clients); err != nil {
		return row, fmt.Errorf("rtree %v hot throughput: %w", row.Mode, err)
	}
	return row, nil
}
