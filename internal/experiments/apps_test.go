package experiments

import (
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/rtree"
)

func TestTerraTable(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		at := func(p dsmsort.Placement) TerraRow {
			return measure(t, Terra, TerraRow{Params: cluster.DefaultParams(), Placement: p, W: 96, H: 96, Seed: seed})
		}
		active, conv := at(dsmsort.Active), at(dsmsort.Conventional)
		// Steps 1-2 must benefit from ASUs; step 3 must not (it runs on the
		// host either way, give or take I/O noise).
		if active.Restructure >= conv.Restructure {
			t.Errorf("active restructure %v >= conventional %v", active.Restructure, conv.Restructure)
		}
		if active.Sort >= conv.Sort {
			t.Errorf("active sort %v >= conventional %v", active.Sort, conv.Sort)
		}
		ratio := active.Watershed.Seconds() / conv.Watershed.Seconds()
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("watershed step moved with placement: ratio %.2f, want ~1", ratio)
		}
		total := func(r TerraRow) float64 { return (r.Restructure + r.Sort + r.Watershed + r.FlowAccum).Seconds() }
		if total(active) >= total(conv) {
			t.Errorf("active total %.3fs >= conventional %.3fs", total(active), total(conv))
		}
		if active.Watersheds != conv.Watersheds {
			t.Errorf("watershed counts differ: %d vs %d", active.Watersheds, conv.Watersheds)
		}
	})
}

func TestRTreeTable(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		at := func(m rtree.Mode) RTreeRow {
			return measure(t, RTree, RTreeRow{Params: cluster.DefaultParams(), Mode: m, Replicas: 2, Entries: 1 << 13, Seed: seed})
		}
		partition, stripe, replicated := at(rtree.Partition), at(rtree.Stripe), at(rtree.Replicated)
		// The Figure 5 tradeoff: striping bounds latency, partitioning wins
		// concurrent throughput.
		if stripe.WideLatency >= partition.WideLatency {
			t.Errorf("stripe wide-scan latency %v >= partition %v", stripe.WideLatency, partition.WideLatency)
		}
		if partition.QPS <= stripe.QPS {
			t.Errorf("partition qps %.0f <= stripe qps %.0f", partition.QPS, stripe.QPS)
		}
		// The hybrid: replication rescues hot-spot throughput where
		// partitioning funnels everything to one ASU.
		if replicated.HotQPS <= 1.2*partition.HotQPS {
			t.Errorf("replicated hot qps %.0f vs partition %.0f; replication should win on hot spots",
				replicated.HotQPS, partition.HotQPS)
		}
	})
}

// TestRTreeInvalidParamsIsAnError: an unbuildable cluster (here from
// `asulab rtree -asus 0`) comes back as the row's error, not a panic.
func TestRTreeInvalidParamsIsAnError(t *testing.T) {
	p := cluster.DefaultParams()
	p.ASUs = 0
	if _, err := RTree(RTreeRow{Params: p, Mode: rtree.Stripe, Entries: 64, Seed: 1}); err == nil {
		t.Fatal("RTree with zero ASUs returned no error")
	}
}
