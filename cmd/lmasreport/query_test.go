package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"lmas/internal/recorder"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// TestQueryToleratesUnreadableSegments: a store holding a good run, a run that
// failed after Begin and the zero-byte file a killed process leaves behind.
// `query list` shows both readable runs — the failed one as finished without
// a report — and succeeds; `query gate`, whose verdict could hinge on the
// missing run, refuses the store.
func TestQueryToleratesUnreadableSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := recorder.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"good", "failed"} {
		rec := st.NewRun()
		rec.Begin(&recorder.Header{Experiment: "exp", Name: name})
		if name == "good" {
			rec.Finish(telemetry.NewRunReport(name, 1, 0))
		} else {
			rec.Finish(nil)
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "exp-killed-0000.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() {
		if err := runQuery([]string{dir, "list"}); err != nil {
			t.Fatalf("query list: %v", err)
		}
	})
	for _, want := range []string{"exp-good-0000", "exp-failed-0000", "failed (no report)"} {
		if !strings.Contains(out, want) {
			t.Errorf("query list output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "exp-killed-0000") {
		t.Errorf("query list shows the unreadable segment as a run:\n%s", out)
	}
	err = runQuery([]string{dir, "gate", "-base", "exp", "-new", "exp"})
	if err == nil || !strings.Contains(err.Error(), "exp-killed-0000.jsonl") {
		t.Errorf("query gate = %v, want an error naming the unreadable segment", err)
	}
}

// TestGateAndStoreDiffAgree: `query STORE gate -base A -new B` and
// `diff -store STORE A B` are two spellings of one command — same stdout and
// same exit code, with and without a regression past threshold. The runs are
// shaped like openloop reports: the p99 gate reads latencies[], so a tail
// that grows while the runtime holds fails it (and only when it is on).
func TestGateAndStoreDiffAgree(t *testing.T) {
	dir := t.TempDir()
	st, err := recorder.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for exp, r := range map[string]struct{ elapsed, p99 sim.Duration }{
		"base": {100 * sim.Millisecond, 271 * sim.Microsecond},
		"same": {100 * sim.Millisecond, 271 * sim.Microsecond},
		"slow": {150 * sim.Millisecond, 271 * sim.Microsecond},
		"tail": {100 * sim.Millisecond, 300 * sim.Microsecond},
	} {
		rep := telemetry.NewRunReport("cell", 1, r.elapsed)
		rep.Latencies = []telemetry.LatencyReport{{Name: "openloop.job.latency", Count: 1000, P99Ns: int64(r.p99)}}
		rec := st.NewRun()
		rec.Begin(&recorder.Header{Experiment: exp, Name: "cell"})
		rec.Finish(rep)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (stdout string, code int) {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.Output()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%v: %v", args, err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}
	p99Gate := []string{"-p99-threshold", "0.1"}
	for _, tc := range []struct {
		next  string
		flags []string
		code  int
		want  string
	}{
		{"same", nil, 0, "no regressions past thresholds"},
		{"slow", nil, 1, "REGRESSED"},
		{"same", p99Gate, 0, "no regressions past thresholds"},
		{"tail", nil, 0, "openloop.job.latency.p99"},
		{"tail", p99Gate, 1, "REGRESSED"},
	} {
		gateOut, gateCode := run(append([]string{"query", dir, "gate", "-base", "base", "-new", tc.next}, tc.flags...)...)
		diffOut, diffCode := run(append([]string{"diff", "-store", dir, "base", tc.next}, tc.flags...)...)
		if gateCode != tc.code || diffCode != tc.code {
			t.Errorf("base vs %s %v: gate exit %d, diff exit %d, want %d", tc.next, tc.flags, gateCode, diffCode, tc.code)
		}
		if gateOut != diffOut {
			t.Errorf("base vs %s %v: stdout differs\ngate:\n%s\ndiff:\n%s", tc.next, tc.flags, gateOut, diffOut)
		}
		if !strings.Contains(gateOut, tc.want) {
			t.Errorf("base vs %s %v: stdout lacks %q:\n%s", tc.next, tc.flags, tc.want, gateOut)
		}
	}
}
