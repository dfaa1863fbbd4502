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
		{[]string{"-zipf", "NaN"}, "zipf"},
		{[]string{"-zipf", "+Inf"}, "zipf"},
		{[]string{"-zipf", "-Inf"}, "zipf"},
	} {
		wantCleanError(t, append([]string{"openloop"}, c.args...), "asulab: openloop: "+c.field+" must be")
	}
}

// TestTableRowBadFlagsAreErrors: a grid size, entry count or cluster shape a
// table row cannot run is an error naming the field (exit 1), returned by the
// row function before it builds anything, not a panic from deep inside the
// workload.
func TestTableRowBadFlagsAreErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"terraflow", "-w", "0"}, "asulab: terra: W must be >= 1, have 0"},
		{[]string{"terraflow", "-h", "-3"}, "asulab: terra: H must be >= 1, have -3"},
		{[]string{"terraflow", "-asus", "0"}, "asulab: terra: cluster: need at least one ASU, have 0"},
		{[]string{"filter", "-asus", "0"}, "asulab: filter: cluster: need at least one ASU, have 0"},
		{[]string{"onepass", "-hosts", "0"}, "asulab: onepass: cluster: need at least one host, have 0"},
		{[]string{"rtree", "-entries", "0"}, "asulab: rtree: Entries must be >= 1, have 0"},
		{[]string{"fig9", "-c", "0"}, "cluster: power ratio c must be finite and positive, have 0"},
		{[]string{"fig9", "-c", "-1"}, "cluster: power ratio c must be finite and positive, have -1"},
		{[]string{"fig9", "-c", "NaN"}, "cluster: power ratio c must be finite and positive, have NaN"},
		{[]string{"fig9", "-c", "+Inf"}, "cluster: power ratio c must be finite and positive, have +Inf"},
		{[]string{"openloop", "-timeout", "NaN"}, "asulab: openloop: -timeout must be finite and within ±9.223e+12 ms, have NaN"},
		{[]string{"openloop", "-timeout", "1e300"}, "asulab: openloop: -timeout must be finite and within ±9.223e+12 ms, have 1e+300"},
	} {
		wantCleanError(t, c.args, c.want)
	}
	// A sort table with no records would time nothing: every ratio NaN, every
	// row zero.
	for _, table := range []string{"fig9", "cratio", "hybrid", "packet", "filter", "gamma", "routes", "iso", "adapt"} {
		wantCleanError(t, []string{table, "-n", "0"}, "N must be >= 1, have 0")
	}
}

// wantCleanError runs `asulab args...` and wants exit status 1 with want on
// stderr and no goroutine dump.
func wantCleanError(t *testing.T, args []string, want string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("%v: err = %v, want exit status 1", args, err)
	}
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("%v: stderr %q does not contain %q", args, stderr.String(), want)
	}
	if strings.Contains(stderr.String(), "goroutine ") {
		t.Errorf("%v: stderr holds a goroutine dump:\n%s", args, stderr.String())
	}
}
