package main

import (
	"bytes"
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

// TestEngineFlagsAreGone: the flags that selected the parallel engine no
// longer exist, so `dsmsort` refuses them the way Go's flag package refuses any
// unknown flag (exit 2) instead of accepting and ignoring them.
func TestEngineFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "parallel"},
		{"-workers", "2"},
		{"-groups", "2"},
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
