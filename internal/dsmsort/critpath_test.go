package dsmsort

import (
	"bytes"
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/loadmgr"
	"lmas/internal/records"
	"lmas/internal/telemetry"
)

// profiledRun executes one small full Sort with the critical-path profiler
// attached and returns the cluster and result.
func profiledRun(t *testing.T, n int) (*cluster.Cluster, *Result) {
	t.Helper()
	cl := cluster.NewObserved(testParams(1, 4), cluster.Observers{Critpath: true})
	in := MakeInput(cl, n, records.Uniform{}, 7, 32)
	res, err := Sort(cl, smallConfig(), in)
	if err != nil {
		t.Fatalf("sort: %v", err)
	}
	return cl, res
}

// TestCritpathConservation runs the full attribution path and checks the
// per-chain accounting identity (span == attributed + gap, gap >= 0) on every
// live chain, plus basic report sanity.
func TestCritpathConservation(t *testing.T) {
	cl, _ := profiledRun(t, 4000)
	pf := cl.Profiler
	if err := pf.Conservation(); err != nil {
		t.Fatal(err)
	}
	rep := pf.Report()
	if rep.Chains == 0 || rep.Charges == 0 {
		t.Fatalf("empty attribution: %d chains, %d charges", rep.Chains, rep.Charges)
	}
	if len(rep.Waterfall) == 0 {
		t.Fatal("empty waterfall")
	}
	if rep.Path.Hops == 0 {
		t.Fatal("no critical path found")
	}
	if rep.Path.GapNs < 0 || rep.Path.AttributedNs < 0 {
		t.Fatalf("negative path accounting: %+v", rep.Path)
	}
	if rep.Verdict.Observed == "" {
		t.Fatal("no observed bottleneck")
	}
}

// TestCritpathByteIdentical runs the same seed twice and requires the
// marshalled critpath sections to be byte-identical.
func TestCritpathByteIdentical(t *testing.T) {
	run := func() []byte {
		cl, _ := profiledRun(t, 4000)
		b, err := telemetry.Marshal(cl.Profiler.Report())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("critpath reports differ across identical runs")
	}
}

// TestCritpathVirtualTimeNeutral requires the profiler to be a pure observer:
// the same workload completes at the same virtual instant with and without it.
func TestCritpathVirtualTimeNeutral(t *testing.T) {
	run := func(profile bool) int64 {
		cl := cluster.NewObserved(testParams(1, 4), cluster.Observers{Critpath: profile})
		in := MakeInput(cl, 4000, records.Uniform{}, 7, 32)
		res, err := Sort(cl, smallConfig(), in)
		if err != nil {
			t.Fatalf("sort: %v", err)
		}
		return int64(res.Elapsed)
	}
	plain, profiled := run(false), run(true)
	if plain != profiled {
		t.Errorf("profiler changed virtual time: %d ns without, %d ns with", plain, profiled)
	}
}

// TestCritpathVerdictMatchesModel pins the acceptance config: Pass1Model
// predicts run formation, so on a run-formation-only execution at the paper's
// saturation point (1 host, 16 ASUs, c=8, where the host is the analytic
// bottleneck) the observed critical path must name the same resource.
func TestCritpathVerdictMatchesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("run formation with 16 ASUs")
	}
	params := testParams(1, 16)
	cl := cluster.NewObserved(params, cluster.Observers{Critpath: true})
	cfg := Config{
		Alpha:         16,
		Beta:          64,
		Gamma2:        16,
		PacketRecords: 64,
		Placement:     Active,
		Seed:          42,
	}
	in := MakeInput(cl, 1<<15, records.Uniform{}, 42, 64)
	if _, _, err := RunFormation(cl, cfg, in); err != nil {
		t.Fatalf("run formation: %v", err)
	}
	rep := cl.Profiler.Report()
	rates := loadmgr.Pass1Model{Params: params}.ActiveRates(cfg.Alpha, cfg.Beta)
	predicted, rate := rates.Bottleneck()
	rep.SetPrediction(predicted, rate)
	if rep.Verdict.Agree != "yes" {
		t.Errorf("observed bottleneck %q (share %.2f) disagrees with predicted %q (%.3g rec/s)",
			rep.Verdict.Observed, rep.Verdict.ObservedShare, predicted, rate)
	}
}
