package loadmgr

import (
	"math"
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

func params(hosts, asus int) cluster.Params {
	p := cluster.DefaultParams()
	p.Hosts, p.ASUs = hosts, asus
	return p
}

func TestPredictSlowdownWithFewASUs(t *testing.T) {
	m := Pass1Model{Params: params(1, 2)}
	if sp := m.PredictSpeedup(256, 64); sp >= 1 {
		t.Fatalf("2 ASUs, alpha=256: predicted speedup %.2f, want < 1", sp)
	}
}

func TestPredictSpeedupWithManyASUs(t *testing.T) {
	m := Pass1Model{Params: params(1, 64)}
	sp := m.PredictSpeedup(256, 64)
	if sp <= 1.2 {
		t.Fatalf("64 ASUs, alpha=256: predicted speedup %.2f, want > 1.2", sp)
	}
	if sp > 2.5 {
		t.Fatalf("64 ASUs: predicted speedup %.2f implausibly high", sp)
	}
}

func TestPredictMonotonicInAlphaAtScale(t *testing.T) {
	m := Pass1Model{Params: params(1, 64)}
	prev := -1.0
	for _, alpha := range []int{1, 4, 16, 64, 256} {
		sp := m.PredictSpeedup(alpha, 64)
		if sp < prev {
			t.Fatalf("speedup not increasing with alpha at 64 ASUs: alpha=%d gives %.3f < %.3f", alpha, sp, prev)
		}
		prev = sp
	}
}

func TestPredictAlphaOneNearUnityAtScale(t *testing.T) {
	m := Pass1Model{Params: params(1, 32)}
	sp := m.PredictSpeedup(1, 64)
	if math.Abs(sp-1.0) > 0.15 {
		t.Fatalf("alpha=1 speedup %.3f, want ~1.0", sp)
	}
}

func TestChooseAlphaPrefersSmallWhenASUsScarce(t *testing.T) {
	cands := []int{1, 4, 16, 64, 256}
	small := ChooseAlpha(params(1, 2), cands, 64)
	big := ChooseAlpha(params(1, 64), cands, 64)
	if small > big {
		t.Fatalf("adaptive alpha: %d ASUs=2 vs %d ASUs=64; expected nondecreasing", small, big)
	}
	if big < 64 {
		t.Fatalf("with 64 ASUs adaptive picked alpha=%d; expected a large alpha", big)
	}
	if small > 16 {
		t.Fatalf("with 2 ASUs adaptive picked alpha=%d; expected a small alpha", small)
	}
}

func TestSaturationASUsNearSixteen(t *testing.T) {
	// The paper's configuration saturates one host around 16 ASUs.
	got := SaturationASUs(params(1, 1), 16, 64)
	if got < 8 || got > 24 {
		t.Fatalf("saturation at %d ASUs, want within [8,24]", got)
	}
}

func TestSaturationGrowsWithHosts(t *testing.T) {
	one := SaturationASUs(params(1, 1), 16, 64)
	two := SaturationASUs(params(2, 1), 16, 64)
	if two < 2*one-1 {
		t.Fatalf("saturation %d with 1 host, %d with 2; expected ~2x", one, two)
	}
}

func TestChooseAlphaEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ChooseAlpha(params(1, 2), nil, 64)
}

func TestImbalance(t *testing.T) {
	// Busy intervals are right-aligned within their window so every trace
	// ends exactly on the last window boundary; otherwise the final window
	// would be pro-rated to each trace's own observed width.
	mk := func(vals ...float64) *telemetry.UtilTrace {
		tr := telemetry.NewUtilTrace("x", sim.Second)
		for i, v := range vals {
			winEnd := sim.Time(i+1) * sim.Time(sim.Second)
			tr.RecordBusy(winEnd.Add(-sim.Duration(v*float64(sim.Second))), winEnd)
		}
		return tr
	}
	balanced := []*telemetry.UtilTrace{mk(0.5, 0.5), mk(0.5, 0.5)}
	if got := Imbalance(balanced, 2); got != 0 {
		t.Fatalf("balanced imbalance = %v", got)
	}
	skewed := []*telemetry.UtilTrace{mk(1.0, 1.0), mk(0.2, 0.4)}
	if got := Imbalance(skewed, 2); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("skewed imbalance = %v, want 0.7", got)
	}
	if Imbalance(nil, 0) != 0 || Imbalance(balanced[:1], 0) != 0 {
		t.Fatal("degenerate cases must be 0")
	}
}

func TestRatesPositive(t *testing.T) {
	m := Pass1Model{Params: params(2, 16)}
	for _, alpha := range []int{1, 16, 256} {
		if m.ActiveRate(alpha, 64) <= 0 || m.ConventionalRate(alpha, 64) <= 0 {
			t.Fatalf("non-positive predicted rate at alpha=%d", alpha)
		}
	}
}
