package experiments

import "testing"

// filterAt measures TAB-FILTER's selection scan over 2^15 records at sel, on
// its 16 ASUs and 60 MB/s interconnect.
func filterAt(t *testing.T, seed int64, sel float64) FilterRow {
	t.Helper()
	row := FilterRow{Spec: specAt(seed, 1<<15, 16, 0, 64), Selectivity: sel}
	row.Params.NetBandwidth = 60e6
	return measure(t, Filter, row)
}

func TestFilterPushdown(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		needle, all := filterAt(t, seed, 0.01), filterAt(t, seed, 1.0)
		// Low selectivity: pushing the filter to the ASUs must cut
		// interconnect traffic dramatically and win on time.
		if needle.ActiveNetMB > 0.2*needle.ConvNetMB {
			t.Errorf("sel=0.01: active moved %.1f MB vs conventional %.1f MB; pushdown must slash traffic",
				needle.ActiveNetMB, needle.ConvNetMB)
		}
		if needle.ActiveSecs >= needle.ConvSecs {
			t.Errorf("sel=0.01: active %.4fs not faster than conventional %.4fs",
				needle.ActiveSecs, needle.ConvSecs)
		}
		// Keep-everything: no traffic reduction is possible; active must
		// not win by much and may lose (weak ASU processors do the work).
		if all.ActiveNetMB < 0.9*all.ConvNetMB {
			t.Errorf("sel=1.0: active traffic %.1f MB much below conventional %.1f MB; nothing should be filtered",
				all.ActiveNetMB, all.ConvNetMB)
		}
		// Matches must agree between placements (checked internally) and be
		// roughly selectivity * N.
		if needle.Matches <= 0 || needle.Matches > int64(needle.N)/20 {
			t.Errorf("sel=0.01 matched %d of %d", needle.Matches, needle.N)
		}
	})
}

func TestFilterSpeedupGrowsAsSelectivityFalls(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		low, high := filterAt(t, seed, 0.05), filterAt(t, seed, 0.5)
		spLow, spHigh := low.ConvSecs/low.ActiveSecs, high.ConvSecs/high.ActiveSecs
		if spLow <= spHigh {
			t.Errorf("speedup at sel=0.05 (%.2f) should exceed sel=0.5 (%.2f)", spLow, spHigh)
		}
	})
}
