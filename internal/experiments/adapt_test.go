package experiments

import (
	"testing"

	"lmas/internal/sim"
)

// adaptRows measures every TAB-ADAPT strategy on the Figure 10 workload of n
// records, sampled each window, with the given trigger threshold.
func adaptRows(t *testing.T, seed int64, n int, window sim.Duration, threshold float64) map[string]AdaptRow {
	t.Helper()
	f10 := DefaultFig10Options()
	f10.N, f10.Window, f10.Seed = n, window, seed
	rows := map[string]AdaptRow{}
	for _, strategy := range []string{"static", "adaptive", "sr"} {
		rows[strategy] = measure(t, Adapt, AdaptRow{Spec: f10.Spec(), Strategy: strategy,
			SkewMean: f10.SkewMean, Threshold: threshold})
	}
	return rows
}

func TestAdaptSwitchesMidRun(t *testing.T) {
	overSeeds(t, func(t *testing.T, seed int64) {
		rows := adaptRows(t, seed, 1<<17, 50*sim.Millisecond, 0.25)
		static, adaptive, sr := rows["static"], rows["adaptive"], rows["sr"]
		// The watch must actually fire, and only after the skewed half
		// begins (the uniform half is balanced).
		if adaptive.SwitchedAt == 0 {
			t.Fatal("adaptive run never switched policies")
		}
		if adaptive.SwitchedAt.Seconds() < 0.25*sr.Elapsed.Seconds() {
			t.Errorf("switched at %v, suspiciously early (run ~%v)", adaptive.SwitchedAt, sr.Elapsed)
		}
		// Adaptation recovers most of the gap between static and SR.
		if adaptive.Elapsed >= static.Elapsed {
			t.Errorf("adaptive %v not faster than static %v", adaptive.Elapsed, static.Elapsed)
		}
		if adaptive.Elapsed < sr.Elapsed {
			t.Errorf("adaptive %v beat always-SR %v; it cannot (it starts static)", adaptive.Elapsed, sr.Elapsed)
		}
		gap := static.Elapsed - sr.Elapsed
		recovered := static.Elapsed - adaptive.Elapsed
		if float64(recovered) < 0.5*float64(gap) {
			t.Errorf("adaptation recovered only %v of the %v static-vs-SR gap", recovered, gap)
		}
	})
}

func TestAdaptWatchNeverFiringStillTerminates(t *testing.T) {
	// An unreachable threshold: the watch must exit cleanly via the
	// completion flag instead of deadlocking the run, and the adaptive
	// run degenerates to static.
	rows := adaptRows(t, 42, 1<<16, 100*sim.Millisecond, 1.1) // spread can never exceed 1.0
	if rows["adaptive"].SwitchedAt != 0 {
		t.Errorf("watch fired at %v despite unreachable threshold", rows["adaptive"].SwitchedAt)
	}
	if rows["adaptive"].Elapsed != rows["static"].Elapsed {
		t.Errorf("non-firing adaptive (%v) must equal static (%v)",
			rows["adaptive"].Elapsed, rows["static"].Elapsed)
	}
}
