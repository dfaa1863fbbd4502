package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lmas/internal/sim"
)

// shapeSeeds are the workload seeds every shape test asserts its claims
// over: a ✅ in EXPERIMENTS.md must not rest on one seed.
var shapeSeeds = []int64{1, 2, 3, 4, 5}

// overSeeds runs check once per shape seed, as parallel subtests.
func overSeeds(t *testing.T, check func(t *testing.T, seed int64)) {
	for _, seed := range shapeSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			check(t, seed)
		})
	}
}

// specAt is NewSpec with the workload seed replaced.
func specAt(seed int64, n, asus, alpha, packetRecords int) Spec {
	s := NewSpec(n, asus, alpha, packetRecords)
	s.Sort.Seed = seed
	return s
}

// measure runs the row function f on row, failing t on an error.
func measure[R any](t *testing.T, f func(R) (R, error), row R) R {
	t.Helper()
	row, err := f(row)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// TestFig9Shape runs the Figure 9 grid at half the default input, on four of
// its ASU counts and three of its α series.
func TestFig9Shape(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		alphas := []int{1, 16, 256}
		rows := map[int]Fig9Row{}
		for _, d := range []int{2, 8, 16, 64} {
			rows[d] = measure(t, Fig9, Fig9Row{Spec: specAt(seed, 1<<17, d, 0, 32), Alphas: alphas})
		}
		get := func(d, a int) float64 { return rows[d].Speedups[slices.Index(alphas, a)] }
		// Small D: slowdown, worse for larger alpha.
		if sp := get(2, 256); sp >= 0.7 {
			t.Errorf("d=2 a=256 speedup %.3f, want < 0.7 (strong slowdown)", sp)
		}
		if get(2, 256) >= get(2, 1) {
			t.Errorf("d=2: slowdown must worsen with alpha: a=256 %.3f vs a=1 %.3f", get(2, 256), get(2, 1))
		}
		// Large D: speedup, better for larger alpha. (At the full default
		// input size this point reaches ~1.34; the reduced test input pays
		// proportionally more end-of-stream overhead.)
		if sp := get(64, 256); sp <= 1.2 {
			t.Errorf("d=64 a=256 speedup %.3f, want > 1.2", sp)
		}
		if !(get(64, 256) > get(64, 16) && get(64, 16) > get(64, 1)) {
			t.Errorf("d=64: speedup should increase with alpha: %.3f %.3f %.3f",
				get(64, 1), get(64, 16), get(64, 256))
		}
		// Alpha=1 plateaus near 1.0 once the host saturates.
		if sp := get(64, 1); sp < 0.85 || sp > 1.2 {
			t.Errorf("d=64 a=1 speedup %.3f, want ~1.0", sp)
		}
		// Crossover: a=256 goes from losing to winning as ASUs are added.
		if !(get(2, 256) < 1 && get(64, 256) > 1) {
			t.Errorf("no crossover for a=256: d=2 %.3f, d=64 %.3f", get(2, 256), get(64, 256))
		}
		// Host saturation: the paper's host saturates at 16 ASUs, so going
		// to 64 gains a=256 at most 5 %.
		if gain := get(64, 256) / get(16, 256); gain > 1.05 {
			t.Errorf("d=16->64 a=256 still gained %.3fx; host should saturate around 16", gain)
		}
		// Adaptive equals the best static series (within 1 %).
		for d, r := range rows {
			if ad, best := r.Speedups[r.Adaptive], slices.Max(r.Speedups); ad < 0.99*best {
				t.Errorf("d=%d: adaptive %.3f < 99%% of best static %.3f", d, ad, best)
			}
		}
	})
}

func TestFig10Shape(t *testing.T) {
	opt := DefaultFig10Options()
	opt.N = 1 << 16
	opt.Window = 25 * sim.Millisecond
	res, err := RunFig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	// The load-managed run must finish no later and be clearly more
	// balanced ("The load-managed run terminates earlier; it shows
	// nearly identical utilizations on the two hosts").
	if res.Managed.Elapsed > res.Static.Elapsed {
		t.Errorf("managed %.3fs slower than static %.3fs",
			res.Managed.Elapsed.Seconds(), res.Static.Elapsed.Seconds())
	}
	if res.Managed.Imbalance >= res.Static.Imbalance {
		t.Errorf("managed imbalance %.3f >= static %.3f",
			res.Managed.Imbalance, res.Static.Imbalance)
	}
	if res.Static.Imbalance < 0.1 {
		t.Errorf("static imbalance %.3f too small; skew did not bite", res.Static.Imbalance)
	}
	// The paper's bound is 3 %, which the full-size run meets (asulab fig10
	// reads 0.026); this reduced input has fewer windows to even out in.
	if res.Managed.Imbalance > 0.05 {
		t.Errorf("managed imbalance %.3f; SR should nearly equalize hosts", res.Managed.Imbalance)
	}
	if len(res.Static.HostUtil) != 2 || len(res.Managed.HostUtil) != 2 {
		t.Fatal("missing host traces")
	}
	// Tables render.
	if s := res.Table().String(); !strings.Contains(s, "static.host1") {
		t.Errorf("series table malformed:\n%s", s)
	}
	if s := res.Summary().String(); !strings.Contains(s, "load-managed") {
		t.Errorf("summary malformed:\n%s", s)
	}
}
