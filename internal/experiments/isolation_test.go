package experiments

import (
	"strings"
	"testing"

	"lmas/internal/sim"
)

func TestIsolationBoundsTailLatency(t *testing.T) {
	opt := DefaultIsolationOptions()
	opt.N = 1 << 15
	res, err := RunIsolation(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	off := res.Cells[0]   // quantum 0: no isolation
	tight := res.Cells[2] // 100us quantum
	if off.Quantum != 0 || tight.Quantum != 100*sim.Microsecond {
		t.Fatalf("unexpected sweep order: %v %v", off.Quantum, tight.Quantum)
	}
	if off.Requests == 0 || tight.Requests == 0 {
		t.Fatal("no foreground requests measured")
	}
	// Unisolated functor packets hold the ASU CPU for ~ms; the p99
	// request latency must reflect that, and isolation must cut it.
	if off.P99 <= 2*res.Baseline {
		t.Errorf("unisolated p99 %v suspiciously close to idle baseline %v; no contention generated",
			off.P99, res.Baseline)
	}
	if tight.P99 >= off.P99/2 {
		t.Errorf("isolation did not cut tail latency: p99 %v (isolated) vs %v (off)", tight.P99, off.P99)
	}
	// The tight quantum bounds waiting to ~quantum + service.
	bound := 4 * (tight.Quantum + res.Baseline)
	if tight.P99 > bound {
		t.Errorf("isolated p99 %v exceeds bound %v", tight.P99, bound)
	}
	// Isolation must not wreck the background sort (some slowdown from
	// yielding is expected, catastrophe is not).
	if tight.SortSecs > 1.5*off.SortSecs {
		t.Errorf("isolation slowed the sort %.2fx", tight.SortSecs/off.SortSecs)
	}
	if s := res.Table().String(); !strings.Contains(s, "p99(ms)") || !strings.Contains(s, "off") {
		t.Errorf("table malformed:\n%s", s)
	}
}

func TestIsolationBaselinePositive(t *testing.T) {
	opt := DefaultIsolationOptions()
	opt.N = 1 << 12
	opt.Quanta = []sim.Duration{0}
	res, err := RunIsolation(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline <= 0 {
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
