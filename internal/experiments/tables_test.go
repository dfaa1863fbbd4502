package experiments

import (
	"testing"

	"lmas/internal/sim"
)

func TestCRatioShape(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		at := func(d int) []float64 { // speedups at c=4, c=8
			return measure(t, CRatio, CRatioRow{Spec: specAt(seed, 1<<15, d, 64, 32), Cs: []float64{4, 8}}).Speedups
		}
		d4, d16 := at(4), at(16)
		// Stronger ASUs (c=4) must beat weaker ones (c=8) at the same count
		// while ASUs are the bottleneck.
		if d4[0] <= d4[1] {
			t.Errorf("c=4 speedup %.3f <= c=8 speedup %.3f at 4 ASUs", d4[0], d4[1])
		}
		// More ASUs help.
		if d16[0] <= d4[0] {
			t.Errorf("c=4: speedup did not grow with ASUs: %.3f -> %.3f", d4[0], d16[0])
		}
	})
}

func TestGammaSweep(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		at := func(g2 int) GammaRow {
			row := GammaRow{Spec: specAt(seed, 1<<14, 8, 8, 64)}
			row.Sort.Gamma2 = g2
			return measure(t, Gamma, row)
		}
		small, big := at(2).Merge, at(16).Merge
		// Tiny gamma2 needs more local levels and more ASU work.
		if small.ASUMergeLevels <= big.ASUMergeLevels {
			t.Errorf("gamma2=2 levels %d <= gamma2=16 levels %d", small.ASUMergeLevels, big.ASUMergeLevels)
		}
		if small.ASUOps <= big.ASUOps {
			t.Errorf("gamma2=2 ASU ops %.0f <= gamma2=16 %.0f", small.ASUOps, big.ASUOps)
		}
	})
}

func TestRoutingAblation(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		f10 := DefaultFig10Options()
		f10.N, f10.Window, f10.Seed = 1<<16, 25*sim.Millisecond, seed
		rows := map[string]RoutingRow{}
		for _, policy := range []string{"static", "round-robin", "sr", "load-aware"} {
			rows[policy] = measure(t, Routing, RoutingRow{Spec: f10.Spec(), Policy: policy, SkewMean: f10.SkewMean})
		}
		// Every dynamic policy must beat static on imbalance under skew.
		for _, name := range []string{"round-robin", "sr", "load-aware"} {
			if rows[name].Imbalance >= rows["static"].Imbalance {
				t.Errorf("%s imbalance %.3f >= static %.3f",
					name, rows[name].Imbalance, rows["static"].Imbalance)
			}
			if rows[name].Elapsed > rows["static"].Elapsed {
				t.Errorf("%s slower than static: %v vs %v",
					name, rows[name].Elapsed, rows["static"].Elapsed)
			}
		}
	})
}

// TestHybridDominatesWhereStaticsLose runs TAB-HYBRID at a quarter of its
// default input, where the migration keeps up (EXPERIMENTS.md TAB-HYBRID).
func TestHybridDominatesWhereStaticsLose(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		byD := map[int]HybridRow{}
		for _, d := range []int{2, 8, 32} {
			byD[d] = measure(t, Hybrid, HybridRow{Spec: specAt(seed, 1<<16, d, 64, 32)})
		}
		// Few ASUs: active loses badly; hybrid must stay near conventional
		// (speedup ~1) by migrating distribute work to the host.
		if c := byD[2]; c.Hybrid < 0.9 {
			t.Errorf("d=2: hybrid speedup %.2f, want ~1 (active was %.2f)", c.Hybrid, c.Active)
		}
		if c := byD[2]; c.Hybrid <= c.Active {
			t.Errorf("d=2: hybrid %.2f must beat active %.2f", c.Hybrid, c.Active)
		}
		// Host distribute share must fall as ASUs are added (migration).
		if byD[2].HostShare <= byD[32].HostShare {
			t.Errorf("host share did not shrink with ASUs: %.2f (d=2) vs %.2f (d=32)",
				byD[2].HostShare, byD[32].HostShare)
		}
		// Many ASUs: hybrid is within 5 % of the better static placement.
		if c := byD[32]; c.Hybrid < 0.95*max(c.Active, 1) {
			t.Errorf("d=32: hybrid %.3f < 95%% of max(active %.3f, conventional 1)", c.Hybrid, c.Active)
		}
		if c := byD[32]; c.Hybrid <= 1.05 {
			t.Errorf("d=32: hybrid %.3f shows no active-storage benefit", c.Hybrid)
		}
	})
}

func TestPacketSweep(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		at := func(pr int) PacketRow {
			return measure(t, Packet, PacketRow{Spec: specAt(seed, 1<<17, 8, 16, pr)})
		}
		tiny, mid, huge := at(4), at(64), at(1024)
		// Tiny packets pay more header overhead on the interconnect.
		if tiny.OverheadFrac <= mid.OverheadFrac {
			t.Errorf("4-record packets overhead %.3f <= 64-record %.3f",
				tiny.OverheadFrac, mid.OverheadFrac)
		}
		if tiny.NetBytes <= huge.NetBytes {
			t.Errorf("tiny packets moved fewer bytes: %d vs %d", tiny.NetBytes, huge.NetBytes)
		}
		// The mid-size packet should be at least as fast as either extreme
		// (tiny loses to per-packet costs, huge loses pipelining).
		if mid.Pass1Secs > tiny.Pass1Secs || mid.Pass1Secs > huge.Pass1Secs {
			t.Errorf("64-record packets (%.4fs) should not lose to 4 (%.4fs) or 1024 (%.4fs)",
				mid.Pass1Secs, tiny.Pass1Secs, huge.Pass1Secs)
		}
	})
}
