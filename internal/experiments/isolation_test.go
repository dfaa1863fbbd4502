package experiments

import (
	"testing"

	"lmas/internal/sim"
)

func TestIsolationBoundsTailLatency(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		at := func(quantum sim.Duration) IsolationRow {
			row := IsolationRow{Spec: specAt(seed, 1<<15, 4, 16, 1024)}
			row.Params.IsolationQuantum = quantum
			return measure(t, Isolation, row)
		}
		off, tight := at(0), at(100*sim.Microsecond)
		if off.Requests == 0 || tight.Requests == 0 {
			t.Fatal("no foreground requests measured")
		}
		// Unisolated functor packets hold the ASU CPU for ~ms; the p99
		// request latency must reflect that, and isolation must cut it.
		if off.P99 <= 2*off.Baseline {
			t.Errorf("unisolated p99 %v suspiciously close to idle baseline %v; no contention generated",
				off.P99, off.Baseline)
		}
		if tight.P99 >= off.P99/2 {
			t.Errorf("isolation did not cut tail latency: p99 %v (isolated) vs %v (off)", tight.P99, off.P99)
		}
		// The tight quantum bounds waiting to ~quantum + service.
		if bound := 4 * (tight.Params.IsolationQuantum + tight.Baseline); tight.P99 > bound {
			t.Errorf("isolated p99 %v exceeds bound %v", tight.P99, bound)
		}
		// Isolation must not wreck the background sort (some slowdown from
		// yielding is expected, catastrophe is not).
		if tight.SortSecs > 1.5*off.SortSecs {
			t.Errorf("isolation slowed the sort %.2fx", tight.SortSecs/off.SortSecs)
		}
	})
}

func TestIsolationBaselinePositive(t *testing.T) {
	row := measure(t, Isolation, IsolationRow{Spec: NewSpec(1<<12, 4, 16, 1024)})
	if row.Baseline <= 0 {
		t.Fatal("idle baseline latency not measured")
	}
}

// TestNearestRank pins the order statistic TAB-ISO and TAB-CHURN report:
// nearest rank over an ascending slice, the ends clamped, zero when empty.
func TestNearestRank(t *testing.T) {
	sorted := []sim.Duration{10, 20, 30, 40, 50}
	for _, c := range []struct {
		q    float64
		want sim.Duration
	}{
		{0, 10}, {20, 10}, {50, 30}, {90, 50}, {99, 50}, {99.9, 50}, {100, 50},
	} {
		if got := nearestRank(sorted, c.q); got != c.want {
			t.Errorf("P%v = %v, want %v", c.q, got, c.want)
		}
	}
	if nearestRank(nil, 50) != 0 {
		t.Error("empty sample set must report zero")
	}
}
