package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"lmas/internal/sim"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(10, 1.5)
	if g.Last() != 0 || g.Samples() != nil {
		t.Fatal("nil gauge recorded")
	}
	h := r.Latency("z")
	h.Observe(sim.Second)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil latency histogram recorded")
	}
	r.Decide(0, "s", "a", "d")
	if r.Decisions() != nil {
		t.Fatal("nil registry logged a decision")
	}
	var rep RunReport
	r.Fill(&rep)
	if rep.Counters != nil || rep.Latencies != nil {
		t.Fatal("nil registry filled a report")
	}
}

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("packets")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("Value = %d", c.Value())
	}
	if r.Counter("packets") != c {
		t.Fatal("get-or-create returned a new counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delta")
		}
	}()
	c.Add(-1)
}

func TestInstrumentKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("name")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic registering a latency histogram over a counter")
		}
	}()
	r.Latency("name")
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("backlog")
	g.Set(100, 2)
	g.Set(200, 5)
	if g.Last() != 5 || len(g.Samples()) != 2 {
		t.Fatalf("Last=%v len=%d", g.Last(), len(g.Samples()))
	}
	if g.Samples()[0] != (GaugeSample{T: 100, V: 2}) {
		t.Fatalf("sample[0] = %+v", g.Samples()[0])
	}
}

func TestDecisions(t *testing.T) {
	r := NewRegistry()
	r.Decide(500, "loadmgr", "switch-policy", "static->sr",
		Reading{Key: "host0.util", Value: 0.95},
		Reading{Key: "host1.util", Value: 0.20})
	ds := r.Decisions()
	if len(ds) != 1 || ds[0].T != 500 || ds[0].Source != "loadmgr" || len(ds[0].Readings) != 2 {
		t.Fatalf("decisions = %+v", ds)
	}
}

// TestReportDeterministicJSON: filling and marshaling the same instrument
// state twice yields byte-identical output.
func TestReportDeterministicJSON(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		r.Counter("b.count").Add(7)
		r.Counter("a.count").Add(3)
		g := r.Gauge("backlog")
		g.Set(10, 1)
		g.Set(20, 4)
		h := r.Latency("lat")
		h.Observe(3 * sim.Millisecond)
		h.Observe(40 * sim.Microsecond)
		r.Decide(100, "route.sort", "switch-policy", "static->sr")
		rep := NewRunReport("unit", 42, 2*sim.Second)
		rep.Config = ClusterConfig{Hosts: 2, ASUs: 4}
		rep.Workload = map[string]any{"n": 1024, "dist": "uniform"}
		r.Fill(rep)
		b, err := Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("report JSON not byte-identical:\n%s\n---\n%s", a, b)
	}
	s := string(a)
	// Counters sorted by name regardless of registration order.
	if strings.Index(s, "a.count") > strings.Index(s, "b.count") {
		t.Fatal("counters not sorted by name")
	}
	if !strings.Contains(s, `"schema": "lmas/runreport/v1"`) {
		t.Fatal("schema missing")
	}
}

func TestReadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := NewRunReport("rt", 7, sim.Second)
	rep.Config = ClusterConfig{Hosts: 1, ASUs: 2}
	single := dir + "/single.json"
	if err := WriteJSON(single, rep); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Runs) != 1 || tr.Runs[0].Name != "rt" || tr.Runs[0].Seed != 7 {
		t.Fatalf("single round trip: %+v", tr.Runs)
	}

	traj := &Trajectory{Schema: TrajectorySchema, Quick: true, Runs: []*RunReport{rep, NewRunReport("rt2", 8, 2*sim.Second)}}
	multi := dir + "/multi.json"
	if err := WriteJSON(multi, traj); err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadFile(multi)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Runs) != 2 || !tr2.Quick {
		t.Fatalf("trajectory round trip: %+v", tr2)
	}

	bad := dir + "/bad.json"
	if err := WriteJSON(bad, map[string]string{"schema": "nope"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

// TestDiffDetectsRuntimeRegression is the acceptance check: a 2x runtime
// slowdown must regress; a small wobble must not.
func TestDiffDetectsRuntimeRegression(t *testing.T) {
	base := NewRunReport("sort", 42, 10*sim.Second)
	slow := NewRunReport("sort", 42, 20*sim.Second)
	res := Diff(
		&Trajectory{Runs: []*RunReport{base}},
		&Trajectory{Runs: []*RunReport{slow}},
		DefaultDiffOptions(),
	)
	if !res.Regressed() {
		t.Fatal("2x slowdown not flagged as regression")
	}

	wobble := NewRunReport("sort", 42, sim.Duration(10.5*float64(sim.Second)))
	res = Diff(
		&Trajectory{Runs: []*RunReport{base}},
		&Trajectory{Runs: []*RunReport{wobble}},
		DefaultDiffOptions(),
	)
	if res.Regressed() {
		t.Fatal("5% wobble flagged under a 10% threshold")
	}

	// A speedup never regresses.
	fast := NewRunReport("sort", 42, 5*sim.Second)
	res = Diff(
		&Trajectory{Runs: []*RunReport{base}},
		&Trajectory{Runs: []*RunReport{fast}},
		DefaultDiffOptions(),
	)
	if res.Regressed() {
		t.Fatal("2x speedup flagged as regression")
	}
}

func TestDiffP99AndMismatches(t *testing.T) {
	// The gate reads latencies[], the report's only distribution section: a
	// > 10% openloop p99 move must fail a 10% gate.
	mkRep := func(p99 sim.Duration) *RunReport {
		rep := NewRunReport("openloop", 1, sim.Second)
		rep.Latencies = []LatencyReport{{Name: "openloop.job.latency", P99Ns: int64(p99), Count: 10}}
		return rep
	}
	diffP99 := func(base, next sim.Duration, threshold float64) *DiffResult {
		return Diff(
			&Trajectory{Runs: []*RunReport{mkRep(base)}},
			&Trajectory{Runs: []*RunReport{mkRep(next)}},
			DiffOptions{RuntimeThreshold: 0.10, P99Threshold: threshold},
		)
	}
	res := diffP99(271*sim.Microsecond, 300*sim.Microsecond, 0.10)
	if !res.Regressed() {
		t.Fatal("+10.7% openloop.job.latency p99 not flagged by a 10% p99 gate")
	}
	var p99 *DiffEntry
	for i := range res.Entries {
		if res.Entries[i].Field == "openloop.job.latency.p99" {
			p99 = &res.Entries[i]
		}
	}
	if p99 == nil || p99.Base != 271e-6 || p99.New != 300e-6 {
		t.Fatalf("p99 entry not reported in seconds: %+v", p99)
	}
	if diffP99(271*sim.Microsecond, 290*sim.Microsecond, 0.10).Regressed() {
		t.Fatal("+7% p99 flagged under a 10% gate")
	}
	if diffP99(271*sim.Microsecond, 542*sim.Microsecond, 0).Regressed() {
		t.Fatal("2x p99 flagged with the p99 gate off")
	}

	// Unmatched runs land in Missing, not Entries.
	res = Diff(
		&Trajectory{Runs: []*RunReport{NewRunReport("only-base", 1, sim.Second)}},
		&Trajectory{Runs: []*RunReport{NewRunReport("only-new", 1, sim.Second)}},
		DefaultDiffOptions(),
	)
	if len(res.Missing) != 2 || res.Regressed() {
		t.Fatalf("missing = %v, regressed = %v", res.Missing, res.Regressed())
	}

	// Config mismatch is a note, never a regression.
	a := NewRunReport("r", 1, sim.Second)
	a.Config = ClusterConfig{Hosts: 2}
	b := NewRunReport("r", 2, sim.Second)
	b.Config = ClusterConfig{Hosts: 4}
	res = Diff(&Trajectory{Runs: []*RunReport{a}}, &Trajectory{Runs: []*RunReport{b}}, DefaultDiffOptions())
	if res.Regressed() {
		t.Fatal("config/seed mismatch treated as regression")
	}
	var sawConfig, sawSeed bool
	for _, e := range res.Entries {
		switch e.Field {
		case "config":
			sawConfig = true
		case "seed":
			sawSeed = true
		}
	}
	if !sawConfig || !sawSeed {
		t.Fatalf("config/seed notes missing: %+v", res.Entries)
	}
}
