package loadmgr

import (
	"math"
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/critpath"
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

// saturationPoint is the smallest ASU count at which the active placement's
// predicted bottleneck is the hosts' CPU rather than the ASUs': beyond it,
// adding ASUs stops helping. It fails the test unless one ASU fewer is
// ASU-bound.
func saturationPoint(t *testing.T, hosts, alpha, beta int) int {
	t.Helper()
	prev := critpath.Class("")
	for d := 1; d <= 1024; d++ {
		class, _ := Pass1Model{Params: params(hosts, d)}.ActiveRates(alpha, beta).Bottleneck()
		if class == critpath.ClassHostCPU {
			if prev != critpath.ClassASUCPU {
				t.Fatalf("%d host(s): bottleneck %q at %d ASUs, then host-cpu at %d", hosts, prev, d-1, d)
			}
			return d
		}
		prev = class
	}
	t.Fatalf("%d host(s): the hosts never saturate", hosts)
	return 0
}

func TestSaturationNearSixteenASUs(t *testing.T) {
	// The paper's configuration saturates one host around 16 ASUs ("This
	// experiment uses one host, which saturates at 16 ASUs"); the model
	// puts the flip at 13.
	if got := saturationPoint(t, 1, 16, 64); got != 13 {
		t.Fatalf("saturation at %d ASUs, want 13", got)
	}
}

func TestSaturationGrowsWithHosts(t *testing.T) {
	one := saturationPoint(t, 1, 16, 64)
	two := saturationPoint(t, 2, 16, 64)
	if two != 2*one {
		t.Fatalf("saturation %d with 1 host, %d with 2; want 2x", one, two)
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
	mk := func(vals ...float64) []float64 {
		tr := telemetry.NewUtilTrace("x", sim.Second)
		for i, v := range vals {
			winEnd := sim.Time(i+1) * sim.Time(sim.Second)
			tr.RecordBusy(winEnd.Add(-sim.Duration(v*float64(sim.Second))), winEnd)
		}
		_, util := tr.Series()
		return util
	}
	balanced := [][]float64{mk(0.5, 0.5), mk(0.5, 0.5)}
	if got := ImbalanceSeries(balanced, 2); got != 0 {
		t.Fatalf("balanced imbalance = %v", got)
	}
	skewed := [][]float64{mk(1.0, 1.0), mk(0.2, 0.4)}
	if got := ImbalanceSeries(skewed, 2); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("skewed imbalance = %v, want 0.7", got)
	}
	if ImbalanceSeries(nil, 0) != 0 || ImbalanceSeries(balanced[:1], 0) != 0 {
		t.Fatal("degenerate cases must be 0")
	}
	// A series that stops early reads as idle past its end.
	if got := ImbalanceSeries([][]float64{{0.5, 0.5}, {0.5}}, 0); got != 0.25 {
		t.Fatalf("short series imbalance = %v, want 0.25", got)
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
