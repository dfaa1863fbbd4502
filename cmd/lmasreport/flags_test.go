package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
// longer exist, so `lmasreport bench` refuses them the way Go's flag package
// refuses any unknown flag (exit 2) instead of accepting and ignoring them.
func TestEngineFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{
		{"bench", "-engine", "parallel"},
		{"bench", "-workers", "2"},
		{"bench", "-groups", "2"},
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

// TestNullRunIsAnError: a trajectory holding a null run makes every command
// that reads a report file exit 1 naming the run, not die on a nil report.
func TestNullRunIsAnError(t *testing.T) {
	dir := t.TempDir()
	it := filepath.Join(dir, "it.json")
	if err := os.WriteFile(it, []byte(`{"schema":"lmas/bench/v1","runs":[null]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"diff", "../../bench/baseline.json", it},
		{"show", it},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1", args[0], err)
		}
		if msg := stderr.String(); !strings.Contains(msg, "run 0 is null") || strings.Contains(msg, "goroutine ") {
			t.Errorf("%v: stderr %q, want the null run named and no goroutine dump", args[0], msg)
		}
	}
}
