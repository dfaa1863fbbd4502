package experiments

import (
	"fmt"
	"testing"

	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// smallOpenLoop keeps the unit-test run fast while still crossing the
// wheel's near/far threshold (1ms timeouts) and recycling procs.
func smallOpenLoop() OpenLoopOptions {
	opt := DefaultOpenLoopOptions()
	opt.Jobs = 2000
	opt.Timeout = 10 * sim.Millisecond
	return opt
}

func TestOpenLoopCompletes(t *testing.T) {
	res, err := RunOpenLoop(smallOpenLoop())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2000 {
		t.Errorf("completed %d jobs, want 2000", res.Completed)
	}
	if res.Goodput <= 0 || res.P99 <= 0 {
		t.Errorf("degenerate metrics: goodput=%v p99=%v", res.Goodput, res.P99)
	}
	var hits, spills, reuses int64 = -1, -1, -1
	for _, c := range res.Report.Counters {
		switch c.Name {
		case "sim.scheduler.wheel_hits":
			hits = c.Value
		case "sim.scheduler.heap_spills":
			spills = c.Value
		case "sim.scheduler.proc_reuses":
			reuses = c.Value
		}
	}
	// Every job's timeout is a far timer; every job past the warm-up is a
	// recycled proc. The counters must be present in the report and reflect
	// that.
	if hits < int64(res.Options.Jobs) {
		t.Errorf("wheel hits = %d, want >= %d", hits, res.Options.Jobs)
	}
	if spills < 0 {
		t.Errorf("heap spills counter missing")
	}
	if reuses < int64(res.Options.Jobs)/2 {
		t.Errorf("proc reuses = %d, want >= %d", reuses, res.Options.Jobs/2)
	}
}

// TestOpenLoopDeterministic pins the open-loop workload's run-to-run
// determinism: the full result — latency percentiles, miss counts, and the
// complete RunReport with scheduler counters — must serialize identically
// on two runs. CI repeats this check end-to-end through the asulab binary
// with cmp.
func TestOpenLoopDeterministic(t *testing.T) {
	run := func() string {
		res, err := RunOpenLoop(smallOpenLoop())
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, res)
	}
	if run() != run() {
		t.Error("two runs of the open-loop workload produced different results")
	}
}

// TestOpenLoopResultIsTheReportsHistogram: TAB-CHURN's completions,
// percentiles and misses are read off the report's openloop.job.latency
// entry and first SLO horizon, so the table and its report print each number
// from one source. The 1ms timeout puts misses on the first horizon, and on
// these options an exact order statistic differs from the histogram's bucket
// bound, so a second quantile path would fail the check.
func TestOpenLoopResultIsTheReportsHistogram(t *testing.T) {
	opt := smallOpenLoop()
	opt.Timeout = sim.Millisecond
	res, err := RunOpenLoop(opt)
	if err != nil {
		t.Fatal(err)
	}
	var lat *telemetry.LatencyReport
	for i := range res.Report.Latencies {
		if res.Report.Latencies[i].Name == "openloop.job.latency" {
			lat = &res.Report.Latencies[i]
		}
	}
	if lat == nil {
		t.Fatal("report has no openloop.job.latency entry")
	}
	if int64(res.Completed) != lat.Count {
		t.Errorf("completed %d, histogram count %d", res.Completed, lat.Count)
	}
	if miss := res.Report.SLO.Horizons[0].Misses; res.Misses == 0 || int64(res.Misses) != miss {
		t.Errorf("misses %d, first horizon %d; want equal and nonzero", res.Misses, miss)
	}
	rows := map[string]string{}
	for _, r := range res.Table().Rows {
		rows[r[0]] = r[1]
	}
	for _, c := range []struct {
		row  string
		got  sim.Duration
		want int64
	}{
		{"p50(ms)", res.P50, lat.P50Ns},
		{"p99(ms)", res.P99, lat.P99Ns},
		{"p99.9(ms)", res.P999, lat.P999Ns},
	} {
		if int64(c.got) != c.want {
			t.Errorf("%s: result %d ns, report %d ns", c.row, c.got, c.want)
		}
		if want := fmt.Sprintf("%.3f", float64(c.want)/1e6); rows[c.row] != want {
			t.Errorf("%s row prints %q, report quantile is %s", c.row, rows[c.row], want)
		}
	}
}

// TestOpenLoopEmptyEdges: no jobs is an empty run, not a hang or an error,
// and without a deadline ladder nothing can miss.
func TestOpenLoopEmptyEdges(t *testing.T) {
	opt := smallOpenLoop()
	opt.Jobs = 0
	res, err := RunOpenLoop(opt)
	if err != nil || res.Completed != 0 {
		t.Fatalf("Jobs=0: completed %v, err %v; want 0 and no error", res, err)
	}
	opt = smallOpenLoop()
	opt.Timeout, opt.Deadlines = sim.Microsecond, 0
	if res, err = RunOpenLoop(opt); err != nil || res.Misses != 0 || res.Completed != opt.Jobs {
		t.Fatalf("Deadlines=0: err %v; want no misses and every job completed", err)
	}
	opt.Deadlines = -1
	if _, err := RunOpenLoop(opt); err == nil {
		t.Error("Deadlines=-1 must be an error")
	}
}
