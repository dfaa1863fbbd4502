package experiments

import (
	"testing"

	"lmas/internal/sim"
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
