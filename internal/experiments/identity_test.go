package experiments

import (
	"encoding/json"
	"testing"

	"lmas/internal/dsmsort"
	"lmas/internal/sim"
)

// mustJSON marshals an experiment result for byte comparison. Callers that
// compare sweeps at different -j zero the result's Options field first: its
// Jobs value legitimately differs — everything else must not.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFig10ByteIdenticalAcrossJobs: the full Figure-10 comparison — traced
// runs, utilization series, imbalance metrics, complete RunReports — must
// serialize to identical bytes whether its runs execute one at a time or on
// the sweep worker pool.
func TestFig10ByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := DefaultFig10Options()
	opt.N = 1 << 16
	opt.Window = 25 * sim.Millisecond
	run := func(jobs int) string {
		o := opt
		o.Jobs = jobs
		res, err := RunFig10(o)
		if err != nil {
			t.Fatal(err)
		}
		res.Options = Fig10Options{}
		return mustJSON(t, res)
	}
	if run(1) != run(4) {
		t.Fatal("Fig10 result bytes differ between -j 1 and -j 4")
	}
}

// TestIsolationByteIdenticalAcrossJobs covers the isolation sweep: the
// foreground-latency percentiles and co-scheduled sort timings must not move
// with the sweep's concurrency.
func TestIsolationByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := DefaultIsolationOptions()
	opt.N = 1 << 15
	run := func(jobs int) string {
		o := opt
		o.Jobs = jobs
		res, err := RunIsolation(o)
		if err != nil {
			t.Fatal(err)
		}
		res.Options = IsolationOptions{}
		return mustJSON(t, res)
	}
	if run(1) != run(4) {
		t.Fatal("isolation result bytes differ between -j 1 and -j 4")
	}
}

// TestAdaptByteIdenticalAcrossJobs covers mid-run adaptation: trigger
// instants and the load-manager decision log are schedule-sensitive, so byte
// identity here exercises the tie-break key hardest.
func TestAdaptByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := DefaultAdaptOptions()
	opt.N = 1 << 14
	run := func(jobs int) string {
		o := opt
		o.Jobs = jobs
		res, err := RunAdapt(o)
		if err != nil {
			t.Fatal(err)
		}
		res.Options = AdaptOptions{}
		return mustJSON(t, res)
	}
	if run(1) != run(4) {
		t.Fatal("adaptation result bytes differ between -j 1 and -j 4")
	}
}

// TestMergeHeavyDeterministic runs the one shape that reaches intermediate
// merge levels: a tiny run length (beta) against a small merge order (gamma2)
// leaves each (ASU, bucket) pair with runs ≫ gamma2, forcing several
// ASU-local merge levels plus a deep host merge. RunSortReport validates the
// output; two runs of a shape must produce byte-identical reports and
// results, for several seeds and distributions.
func TestMergeHeavyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	shapes := []struct {
		dist string
		seed int64
	}{
		{"uniform", 1},
		{"halves", 2},
		{"exp", 3},
	}
	for _, sh := range shapes {
		spec := SortRunSpec{
			Name:          "merge-heavy-" + sh.dist,
			N:             1 << 14,
			Hosts:         1,
			ASUs:          2,
			C:             8,
			Alpha:         4,
			Beta:          128, // 128 runs: 16 per (ASU, bucket)
			Gamma2:        2,   // forces 4 local merge levels
			PacketRecords: 32,
			Placement:     dsmsort.Active,
			Policy:        "static",
			Dist:          sh.dist,
			Seed:          sh.seed,
		}
		run := func() string {
			rep, res, err := RunSortReport(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Merge.ASUMergeLevels < 2 {
				t.Fatalf("%s: only %d local merge levels — shape is not merge-heavy",
					spec.Name, res.Merge.ASUMergeLevels)
			}
			return mustJSON(t, rep) + mustJSON(t, res)
		}
		if run() != run() {
			t.Fatalf("%s: two runs of the merge-heavy sort produced different bytes", sh.dist)
		}
	}
}
