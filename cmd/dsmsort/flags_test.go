package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"lmas/internal/recorder"
	"lmas/internal/telemetry"
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

// TestProgressIsAPureObserver: `-progress 10 -report` prints the progress
// table — stage record counts that only grow and end at N, over both passes,
// and utilizations within [0,1] — and writes the report the bare run writes
// apart from the gauges: the same runtime_ns and the same cpu/disk/nic series
// on every node.
func TestProgressIsAPureObserver(t *testing.T) {
	dir := t.TempDir()
	const n = 16384
	run := func(report string, extra ...string) (string, *telemetry.RunReport) {
		t.Helper()
		path := filepath.Join(dir, report)
		args := append([]string{"-n", strconv.Itoa(n), "-asus", "8", "-report", path}, extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		tr, err := telemetry.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(out), tr.Runs[0]
	}
	bareOut, bare := run("bare.json")
	out, rep := run("progress.json", "-progress", "10")

	if rep.RuntimeNs != bare.RuntimeNs {
		t.Errorf("runtime_ns %d with -progress, %d bare", rep.RuntimeNs, bare.RuntimeNs)
	}
	if !reflect.DeepEqual(rep.Nodes, bare.Nodes) {
		t.Errorf("node utilization series differ from the bare run's")
	}
	for _, node := range rep.Nodes {
		if node.CPU == nil {
			t.Errorf("node %s has no cpu series", node.Name)
		}
	}

	// The table comes first; below it the summary is the bare run's but for
	// the report line's path.
	table, summary, ok := strings.Cut(out, "\n\n")
	if !ok || !strings.HasPrefix(table, "progress\n") {
		t.Fatalf("no progress table at the top of the output:\n%s", out)
	}
	if want := strings.ReplaceAll(bareOut, "bare.json", "progress.json"); summary != want {
		t.Errorf("summary below the table:\n%s\nwant the bare run's:\n%s", summary, want)
	}
	lines := strings.Split(table, "\n")
	headers := strings.Fields(strings.ReplaceAll(lines[1], " util", "-util"))
	want := []string{"t(s)", "distribute", "blocksort", "collect", "merge.asu", "merge.host", "merge.collect", "host0-util", "asu0-util"}
	if !reflect.DeepEqual(headers, want) {
		t.Fatalf("table columns %v, want %v", headers, want)
	}
	rows := lines[3:]
	if len(rows) < 3 {
		t.Fatalf("only %d progress rows:\n%s", len(rows), table)
	}
	prev := make([]float64, len(headers))
	for _, row := range rows {
		cells := strings.Fields(row)
		if len(cells) != len(headers) {
			t.Fatalf("row %q has %d cells, want %d", row, len(cells), len(headers))
		}
		for i, cell := range cells {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("row %q: %v", row, err)
			}
			switch {
			case strings.HasSuffix(headers[i], "-util"):
				if v < 0 || v > 1 {
					t.Errorf("row %q: %s = %v out of [0,1]", row, headers[i], v)
				}
			case v < prev[i]:
				t.Errorf("row %q: %s went back from %v to %v", row, headers[i], prev[i], v)
			}
			prev[i] = v
		}
	}
	for i, h := range headers[1:7] {
		if prev[i+1] != n {
			t.Errorf("stage %s ends at %v records, want %d", h, prev[i+1], n)
		}
	}
}
