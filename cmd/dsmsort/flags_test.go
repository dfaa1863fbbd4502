package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"lmas/internal/recorder"
)

// runMainEnv makes the test binary stand in for the command: TestMain runs
// main() on the process arguments when it is set.
const runMainEnv = "LMAS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestEngineFlagsAreGone: removed flags — the ones that selected the
// parallel engine, and the gauge sampler's -progress and -gauges — no longer
// exist, so `dsmsort` refuses them the way Go's flag package refuses any
// unknown flag (exit 2) instead of accepting and ignoring them.
func TestEngineFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "parallel"},
		{"-workers", "2"},
		{"-groups", "2"},
		{"-progress", "10"},
		{"-gauges", "5"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2", args, err)
		}
		flagName := args[len(args)-2]
		if want := "flag provided but not defined: " + flagName; !strings.Contains(stderr.String(), want) {
			t.Errorf("%v: stderr %q does not contain %q", args, stderr.String(), want)
		}
	}
}

// TestFailedRunLeavesClosedSegment: a recorded run that fails after the store
// header is written (unknown -dist) exits 1 and leaves a closed segment ending
// in a nil-report finish — never the zero-byte file that used to make the
// whole store unreadable — and a good run recorded beside it exits 0. A bad
// -placement is refused before anything is written.
func TestFailedRunLeavesClosedSegment(t *testing.T) {
	dir := t.TempDir()
	run := func(wantExit int, args ...string) {
		t.Helper()
		cmd := exec.Command(os.Args[0], append([]string{"-n", "4096", "-asus", "4", "-record", dir}, args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if exit != wantExit {
			t.Fatalf("%v: exit %d, want %d\n%s", args, exit, wantExit, out)
		}
	}
	run(1, "-placement", "bogus")
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.jsonl")); len(segs) != 0 {
		t.Fatalf("a bad -placement left segments behind: %v", segs)
	}
	run(1, "-dist", "bogus")
	run(0)

	st, err := recorder.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := st.Runs()
	if err != nil {
		t.Fatalf("store does not parse: %v", err)
	}
	if len(runs) != 2 {
		t.Fatalf("store has %d runs, want the failed one and the good one", len(runs))
	}
	failed, good := runs[0], runs[1]
	if !failed.Finished() || failed.Report() != nil {
		t.Errorf("failed run: Finished=%v Report=%v, want a finish without a report", failed.Finished(), failed.Report())
	}
	if good.Report() == nil {
		t.Error("good run has no report")
	}
}

// TestTraceFileOnEveryPath: a -trace path that cannot be created exits 1
// naming it before any sort runs (no "sorted" line on stdout), and a run
// that fails after its trace file was opened still leaves the file closed,
// holding a complete document.
func TestTraceFileOnEveryPath(t *testing.T) {
	dir := t.TempDir()
	run := func(args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(os.Args[0], append([]string{"-n", "4096", "-asus", "4"}, args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err = %v, want exit status 1\n%s%s", args, err, out.String(), errOut.String())
		}
		return out.String(), errOut.String()
	}

	bad := filepath.Join(dir, "missing", "x.json")
	stdout, stderr := run("-trace", bad)
	if !strings.Contains(stderr, "dsmsort: open "+bad) {
		t.Errorf("stderr %q does not name %s", stderr, bad)
	}
	if strings.Contains(stdout, "sorted") {
		t.Errorf("the sort ran before the bad trace path failed:\n%s", stdout)
	}

	for _, name := range []string{"failed.json", "failed.csv"} {
		path := filepath.Join(dir, name)
		run("-trace", path, "-dist", "bogus")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(name, ".csv") {
			if !strings.HasPrefix(string(b), "ts_ns,dur_ns,phase,group,track,name,cat,args\n") {
				t.Errorf("%s: no CSV header in %q", name, b)
			}
		} else if !json.Valid(b) {
			t.Errorf("%s: not a complete JSON document: %q", name, b)
		}
	}
}

// TestBadInputSizeIsAnError: a packet size below one record or a negative
// record count exits 1 with a one-line error, not a panic and a goroutine
// dump, and a recorded run that fails this way leaves a closed segment ending
// in a nil-report finish, as a bad -dist does.
func TestBadInputSizeIsAnError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "4096", "-packet", "0"}, "dsmsort: packet records must be >= 1"},
		{[]string{"-n", "4096", "-packet", "-3"}, "dsmsort: packet records must be >= 1"},
		{[]string{"-n", "-5"}, "dsmsort: record count must be >= 0"},
	} {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], append(tc.args, "-asus", "4", "-record", dir)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err = %v, want exit status 1\n%s", tc.args, err, stderr.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, tc.want) || strings.Contains(msg, "goroutine") {
			t.Errorf("%v: stderr %q, want %q and no panic", tc.args, msg, tc.want)
		}
		st, err := recorder.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := st.Runs()
		if err != nil {
			t.Fatalf("%v: store does not parse: %v", tc.args, err)
		}
		if len(runs) != 1 || !runs[0].Finished() || runs[0].Report() != nil {
			t.Errorf("%v: store has %d runs, want one finished without a report", tc.args, len(runs))
		}
	}
}

// TestBadFlagValuesAreErrors: a flag value with no defined meaning exits 1
// naming the flag, instead of falling back to a default or silently turning
// the feature off.
func TestBadFlagValuesAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-net", "-5"}, "dsmsort: -net must be >= 0"},
		{[]string{"-c", "NaN"}, "dsmsort: cluster: power ratio c must be finite and positive, have NaN"},
		{[]string{"-c", "+Inf"}, "dsmsort: cluster: power ratio c must be finite and positive, have +Inf"},
		{[]string{"-placement", "bogus"}, `dsmsort: unknown placement "bogus" (want active|conventional|hybrid)`},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-n", "4096", "-asus", "4"}, tc.args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1", tc.args, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, msg, tc.want)
		}
	}
}

// TestHybridPlacementSorts: -placement accepts every placement's name, so
// the hybrid placement the bench matrix runs sorts and validates here too.
func TestHybridPlacementSorts(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-n", "4096", "-asus", "4", "-placement", "hybrid")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"(uniform, hybrid)", "output validated: sorted, complete, uncorrupted"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
