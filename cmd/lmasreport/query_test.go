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
// a report — and succeeds.
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
}

// runMain runs the test binary as the command with args and returns its
// stdout, its stderr and its exit code.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%v: %v", args, err)
	}
	if exit != nil {
		stderr = string(exit.Stderr)
	}
	return string(out), stderr, cmd.ProcessState.ExitCode()
}

// TestQueryGateVerdicts: `diff BASE NEW` is the one regression gate — exit 0 and
// "no regressions" when nothing moved past threshold, exit 1 and a REGRESSED
// row when something did. The reports are shaped like openloop reports: the
// p99 gate reads latencies[], so a tail that grows while the runtime holds
// fails it (and only when it is on). `diff` reads report files only: it
// refuses -store.
func TestQueryGateVerdicts(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name+".json") }
	for name, r := range map[string]struct{ elapsed, p99 sim.Duration }{
		"base": {100 * sim.Millisecond, 271 * sim.Microsecond},
		"same": {100 * sim.Millisecond, 271 * sim.Microsecond},
		"slow": {150 * sim.Millisecond, 271 * sim.Microsecond},
		"tail": {100 * sim.Millisecond, 300 * sim.Microsecond},
	} {
		rep := telemetry.NewRunReport("cell", 1, r.elapsed)
		rep.Latencies = []telemetry.LatencyReport{{Name: "openloop.job.latency", Count: 1000, P99Ns: int64(r.p99)}}
		if err := telemetry.WriteJSON(file(name), rep); err != nil {
			t.Fatal(err)
		}
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
		out, _, code := runMain(t, append([]string{"diff", file("base"), file(tc.next)}, tc.flags...)...)
		if code != tc.code {
			t.Errorf("base vs %s %v: exit %d, want %d", tc.next, tc.flags, code, tc.code)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("base vs %s %v: stdout lacks %q:\n%s", tc.next, tc.flags, tc.want, out)
		}
	}
	if _, stderr, code := runMain(t, "diff", "-store", dir, "base", "same"); code != 2 ||
		!strings.Contains(stderr, "flag provided but not defined: -store") {
		t.Errorf("diff -store: exit %d, stderr %q; want exit 2 refusing the flag", code, stderr)
	}
}

// TestStoreGateAndMetricAreGone: `diff` is the one regression gate and
// `trend` the one cross-run metric walk, so the run store's copies of them
// — and `import`, which only loaded a baseline for the gate — are unknown
// subcommands.
func TestStoreGateAndMetricAreGone(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"gate", "metric", "import"} {
		_, stderr, code := runMain(t, "query", dir, sub)
		if code != 1 || !strings.Contains(stderr, "query: unknown subcommand") {
			t.Errorf("query %s: exit %d, stderr %q; want exit 1 with query: unknown subcommand", sub, code, stderr)
		}
	}
}
