package experiments

import (
	"encoding/json"
	"testing"

	"lmas/internal/dsmsort"
	"lmas/internal/sim"
)

// mustJSON marshals an experiment result for byte comparison.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// requireSameAcrossJobs runs a sweep one cell at a time and on the worker
// pool and requires byte-identical results. run zeroes the result's Options
// field before returning it: its Jobs value legitimately differs. (Every
// table grid has the same check in cmd/asulab.)
func requireSameAcrossJobs(t *testing.T, run func(jobs int) any) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	if mustJSON(t, run(1)) != mustJSON(t, run(4)) {
		t.Fatal("result bytes differ between -j 1 and -j 4")
	}
}

// TestFig10ByteIdenticalAcrossJobs: the full Figure-10 comparison — traced
// runs, utilization series, imbalance metrics, complete RunReports — must
// serialize to identical bytes whether its runs execute one at a time or on
// the sweep worker pool.
func TestFig10ByteIdenticalAcrossJobs(t *testing.T) {
	opt := DefaultFig10Options()
	opt.N = 1 << 16
	opt.Window = 25 * sim.Millisecond
	requireSameAcrossJobs(t, func(jobs int) any {
		opt.Jobs = jobs
		res, err := RunFig10(opt)
		if err != nil {
			t.Fatal(err)
		}
		res.Options = Fig10Options{}
		return res
	})
}

// rowsAcrossJobs measures rows with the row function f on the worker pool
// and requires byte-identical rows at -j 1 and -j 4.
func rowsAcrossJobs[R any](t *testing.T, f func(R) (R, error), rows []R) {
	t.Helper()
	requireSameAcrossJobs(t, func(jobs int) any {
		out, err := runCells(len(rows), jobs, func(i int) (R, error) { return f(rows[i]) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

// TestIsolationByteIdenticalAcrossJobs: TAB-ISO's quantum rows, each with its
// idle baseline and foreground latency distribution.
func TestIsolationByteIdenticalAcrossJobs(t *testing.T) {
	var rows []IsolationRow
	for _, q := range []sim.Duration{0, 500 * sim.Microsecond, 100 * sim.Microsecond} {
		row := IsolationRow{Spec: NewSpec(1<<15, 4, 16, 1024)}
		row.Params.IsolationQuantum = q
		rows = append(rows, row)
	}
	rowsAcrossJobs(t, Isolation, rows)
}

// TestAdaptByteIdenticalAcrossJobs covers mid-run adaptation: trigger
// instants and the load-manager decision log are schedule-sensitive, so byte
// identity here exercises the tie-break key hardest.
func TestAdaptByteIdenticalAcrossJobs(t *testing.T) {
	f10 := DefaultFig10Options()
	f10.N = 1 << 14
	var rows []AdaptRow
	for _, strategy := range []string{"static", "adaptive", "sr"} {
		rows = append(rows, AdaptRow{Spec: f10.Spec(), Strategy: strategy, SkewMean: f10.SkewMean, Threshold: 0.25})
	}
	rowsAcrossJobs(t, Adapt, rows)
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
