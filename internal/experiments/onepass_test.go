package experiments

import "testing"

func TestOnePassSweepCrossesWall(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		at := func(n int) OnePassRow {
			row := OnePassRow{Spec: specAt(seed, n, 8, 16, 64)}
			row.Params.Hosts, row.Params.HostMemRecords, row.Sort.Gamma2 = 2, 1<<13, 16
			return measure(t, OnePass, row)
		}
		small, big := at(1<<12), at(1<<16)
		// Below the wall: one pass wins.
		if small.OnePassSecs < 0 {
			t.Fatal("small input rejected by one-pass sort")
		}
		if small.OnePassSecs >= small.DSMSecs {
			t.Errorf("one-pass %.4fs not faster than DSM-Sort %.4fs below the wall",
				small.OnePassSecs, small.DSMSecs)
		}
		// Above the wall: one pass cannot run, DSM-Sort still does.
		if big.OnePassSecs >= 0 {
			t.Errorf("one-pass sorted %d records past the wall", big.N)
		}
		if big.DSMSecs <= 0 {
			t.Error("DSM-Sort missing above the wall")
		}
	})
}
