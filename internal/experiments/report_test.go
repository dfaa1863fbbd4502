package experiments

import (
	"bytes"
	"strings"
	"testing"

	"lmas/internal/bufpool"
	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/route"
	"lmas/internal/telemetry"
)

func smallSpec() SortRunSpec {
	return SortRunSpec{
		Name:          "small",
		N:             1 << 12,
		Hosts:         1,
		ASUs:          4,
		C:             8,
		Alpha:         8,
		Beta:          256,
		Gamma2:        8,
		PacketRecords: 64,
		Placement:     dsmsort.Active,
		Policy:        "sr", // randomized, so determinism is a real claim
		Dist:          "halves",
		Seed:          42,
	}
}

// TestRunReportByteIdentical: the same spec and seed must produce the same
// JSON, byte for byte — the property `lmasreport diff` and the CI gate rely
// on.
func TestRunReportByteIdentical(t *testing.T) {
	run := func() []byte {
		rep, _, err := RunSortReport(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		b, err := telemetry.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ between identical runs:\n%.2000s\n---\n%.2000s", a, b)
	}
}

// TestRunBenchParallelByteIdentical pins the sweep determinism contract:
// the full bench trajectory must be byte-identical whether cells run
// serially or on the worker pool, because each cell is an independent
// simulation and results are collected in matrix order.
func TestRunBenchParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick bench matrix twice")
	}
	run := func(jobs int) []byte {
		tr, err := RunBenchWith(BenchOptions{Quick: true, Seed: 42, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		b, err := telemetry.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial, parallel := run(1), run(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("trajectory differs between -j 1 and -j 4:\n%.2000s\n---\n%.2000s",
			serial, parallel)
	}
}

// TestTelemetryDoesNotPerturbTiming: attaching a registry must leave the
// simulated completion time of a run unchanged — telemetry observes, it
// never participates.
func TestTelemetryDoesNotPerturbTiming(t *testing.T) {
	run := func(attach bool) (elapsed float64) {
		spec := smallSpec()
		params := cluster.DefaultParams()
		params.Hosts, params.ASUs, params.C = spec.Hosts, spec.ASUs, spec.C
		var obs cluster.Observers
		if attach {
			obs.Telemetry = telemetry.NewRegistry()
		}
		cl := cluster.NewObserved(params, obs)
		in, err := dsmsort.MakeInputNamed(cl, spec.N, spec.Dist, spec.Seed, spec.PacketRecords)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := route.ByName(spec.Policy, spec.Alpha, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := dsmsort.Config{
			Alpha:         spec.Alpha,
			Beta:          spec.Beta,
			Gamma2:        spec.Gamma2,
			PacketRecords: spec.PacketRecords,
			Placement:     spec.Placement,
			SortPolicy:    pol,
			Seed:          spec.Seed,
		}
		res, err := dsmsort.Sort(cl, cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed.Seconds()
	}
	with, without := run(true), run(false)
	if with != without {
		t.Fatalf("telemetry changed simulated time: %v with, %v without", with, without)
	}
}

// TestRunSortReportContents sanity-checks the snapshot: utilization for
// every node, the stage instruments, routing counters, and workload echo.
func TestRunSortReportContents(t *testing.T) {
	rep, res, err := RunSortReport(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RuntimeNs != int64(res.Elapsed) {
		t.Fatalf("runtime mismatch: %d vs %d", rep.RuntimeNs, int64(res.Elapsed))
	}
	if len(rep.Nodes) != 5 { // 1 host + 4 ASUs
		t.Fatalf("nodes = %d", len(rep.Nodes))
	}
	for _, n := range rep.Nodes {
		if n.CPU == nil {
			t.Fatalf("node %s has no CPU series", n.Name)
		}
		if n.Kind == "asu" && n.Disk == nil {
			t.Fatalf("ASU %s has no disk series", n.Name)
		}
	}
	counters := map[string]int64{}
	for _, c := range rep.Counters {
		counters[c.Name] = c.Value
	}
	if counters["functor.distribute.records"] != int64(smallSpec().N) {
		t.Fatalf("distribute records = %d, want %d",
			counters["functor.distribute.records"], smallSpec().N)
	}
	if counters["dsmsort.pass1.runs"] == 0 {
		t.Fatal("pass1 runs counter missing")
	}
	// The Counted wrapper records per-sorter routing picks.
	var picks int64
	for name, v := range counters {
		if len(name) > 11 && name[:11] == "route.sort." {
			picks += v
		}
	}
	if picks == 0 {
		t.Fatal("no routing pick counters recorded")
	}
	var seenWait bool
	for _, h := range rep.Latencies {
		if h.Name == "functor.blocksort.queue_wait" && h.Count > 0 {
			seenWait = true
		}
	}
	if !seenWait {
		t.Fatal("blocksort queue-wait histogram empty")
	}
	if rep.Workload["dist"] != "halves" {
		t.Fatalf("workload echo wrong: %+v", rep.Workload)
	}
}

// TestAdaptDecisionAudit: the adaptive strategy must log the imbalance
// trigger and the resulting policy switch.
func TestAdaptDecisionAudit(t *testing.T) {
	f10 := DefaultFig10Options()
	f10.N = 1 << 14
	cell := measure(t, Adapt, AdaptRow{Spec: f10.Spec(), Strategy: "adaptive", SkewMean: f10.SkewMean, Threshold: 0.25})
	if !(cell.SwitchedAt > 0) {
		t.Skip("adaptation did not fire at this size; audit not exercised")
	}
	var sawTrigger, sawSwitch bool
	for _, d := range cell.Decisions {
		switch d.Source {
		case "loadmgr.imbalance-watch":
			sawTrigger = true
			if len(d.Readings) < 2 {
				t.Fatalf("trigger decision has no utilization readings: %+v", d)
			}
		case "route.blocksort":
			sawSwitch = true
			if d.Detail != "static->sr" {
				t.Fatalf("switch detail = %q", d.Detail)
			}
		}
	}
	if !sawTrigger || !sawSwitch {
		t.Fatalf("audit incomplete (trigger=%v switch=%v): %+v", sawTrigger, sawSwitch, cell.Decisions)
	}
}

// TestRunSortReportReturnsStorage: under the pool's debug mode, a cell leaves
// no pooled buffer outstanding — when it succeeds, when the sort fails after
// run formation has stored its runs (γ2 = 1 cannot merge), and when the
// harness gives up after loading the input (unknown routing policy).
func TestRunSortReportReturnsStorage(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*SortRunSpec)
		wantErr string
	}{
		{"ok", func(*SortRunSpec) {}, ""},
		{"sort fails", func(s *SortRunSpec) { s.Gamma2 = 1 }, "gamma2 must be >= 2"},
		{"policy fails", func(s *SortRunSpec) { s.Policy = "nope" }, "unknown policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev := bufpool.SetDebug(true)
			defer bufpool.SetDebug(prev)
			spec := smallSpec()
			tc.mutate(&spec)
			_, _, err := RunSortReport(spec)
			if tc.wantErr == "" && err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("RunSortReport = %v, want an error containing %q", err, tc.wantErr)
			}
			if err := bufpool.LeakCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
