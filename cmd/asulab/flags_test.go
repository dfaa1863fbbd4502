package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
// longer exist, so `asulab` refuses them the way Go's flag package refuses any
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

// TestOpenLoopBadFlagsAreErrors: an openloop job count, arrival rate or SLO
// timeout the workload cannot run is an error naming the field (exit 1), not
// a panic with a goroutine dump or a run that misreports.
func TestOpenLoopBadFlagsAreErrors(t *testing.T) {
	for _, c := range []struct {
		args  []string
		field string
	}{
		{[]string{"-timeout", "0"}, "timeout"},
		{[]string{"-timeout", "-1"}, "timeout"},
		{[]string{"-jobs", "-1"}, "jobs"},
		{[]string{"-rate", "0"}, "rate"},
		{[]string{"-rate", "-2"}, "rate"},
		{[]string{"-rate", "NaN"}, "rate"},
		{[]string{"-rate", "+Inf"}, "rate"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"openloop"}, c.args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1", c.args, err)
		}
		if want := "asulab: openloop: " + c.field + " must be"; !strings.Contains(stderr.String(), want) {
			t.Errorf("%v: stderr %q does not contain %q", c.args, stderr.String(), want)
		}
		if strings.Contains(stderr.String(), "goroutine ") {
			t.Errorf("%v: stderr holds a goroutine dump:\n%s", c.args, stderr.String())
		}
	}
}
