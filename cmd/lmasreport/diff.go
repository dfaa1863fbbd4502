package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"lmas/internal/plot"
	"lmas/internal/recorder"
	"lmas/internal/telemetry"
)

// comparison is the flags and the body `diff` and `query gate` share: the two
// commands differ only in how BASE and NEW are spelled on the command line.
type comparison struct {
	rt, p99 *float64
	quiet   *bool
}

func bindComparison(fs *flag.FlagSet) comparison {
	return comparison{
		rt: fs.Float64("runtime-threshold", telemetry.DefaultDiffOptions().RuntimeThreshold,
			"relative runtime growth that counts as a regression"),
		p99: fs.Float64("p99-threshold", 0,
			"relative p99 latency growth that counts as a regression (0 = informational only)"),
		quiet: fs.Bool("q", false, "print only regressions and the verdict"),
	}
}

// run loads base and next — experiment names in st, or report files when st
// is nil — prints their diff and exits 1 when a regression is past threshold.
func (c comparison) run(cmd string, st *recorder.Store, base, next string) error {
	load := func(side, name string) (*telemetry.Trajectory, error) {
		if st != nil {
			return storeTrajectory(st, name)
		}
		tr, err := telemetry.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", side, err)
		}
		return tr, nil
	}
	baseTr, err := load("base", base)
	if err != nil {
		return err
	}
	nextTr, err := load("new", next)
	if err != nil {
		return err
	}
	res := telemetry.Diff(baseTr, nextTr, telemetry.DiffOptions{
		RuntimeThreshold: *c.rt,
		P99Threshold:     *c.p99,
	})
	if n := renderDiff(res, base, next, *c.quiet); n > 0 {
		fmt.Fprintf(os.Stderr, "lmasreport %s: %d regression(s) past threshold\n", cmd, n)
		os.Exit(1)
	}
	fmt.Println("no regressions past thresholds")
	return nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	cmp := bindComparison(fs)
	store := fs.String("store", "",
		"read BASE and NEW as experiment names from this run store instead of report files")
	names := parseMixed(fs, args)
	if len(names) != 2 {
		if *store != "" {
			return fmt.Errorf("diff: want BASE and NEW experiment names, have %d arg(s)", len(names))
		}
		return fmt.Errorf("diff: want BASE and NEW report files, have %d arg(s)", len(names))
	}
	var st *recorder.Store
	if *store != "" {
		var err error
		if st, err = openStoreRead(*store); err != nil {
			return err
		}
	}
	return cmp.run("diff", st, names[0], names[1])
}

// renderDiff prints the comparison table and any missing-run notes, and
// returns the number of regressions past threshold.
func renderDiff(res *telemetry.DiffResult, from, to string, quiet bool) int {
	shown := 0
	t := plot.NewTable(fmt.Sprintf("Diff %s -> %s", from, to),
		"run", "field", "base", "new", "delta", "verdict")
	for _, e := range res.Entries {
		if quiet && !e.Regressed {
			continue
		}
		verdict := "ok"
		if e.Regressed {
			verdict = "REGRESSED"
		} else if e.Note != "" {
			verdict = e.Note
		}
		t.AddRow(e.Run, e.Field,
			fmt.Sprintf("%.6g", e.Base), fmt.Sprintf("%.6g", e.New),
			fmt.Sprintf("%+.1f%%", e.Delta*100), verdict)
		shown++
	}
	if shown > 0 {
		fmt.Println(t)
	}
	for _, m := range res.Missing {
		fmt.Println(m)
	}
	regs := 0
	for _, e := range res.Entries {
		if e.Regressed {
			regs++
		}
	}
	return regs
}

// openStoreRead opens an existing run store without creating it — reads
// against a mistyped path should fail loudly, not conjure an empty store.
func openStoreRead(dir string) (*recorder.Store, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("run store %s: %w", dir, err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("run store %s: not a directory", dir)
	}
	return &recorder.Store{Dir: dir}, nil
}

// warnSkipped downgrades a store read's unreadable segments to a warning on
// stderr, one line per segment: the readable runs came back beside the error,
// and a listing or a plot is still worth having without the ones a killed
// process left behind. Anything else is returned unchanged. Commands whose
// verdict could hinge on a missing run (gate) do not call it.
func warnSkipped(err error) error {
	var skipped *recorder.SkippedError
	if !errors.As(err, &skipped) {
		return err
	}
	for _, e := range skipped.Skipped {
		fmt.Fprintln(os.Stderr, "lmasreport: skipping unreadable segment:", e)
	}
	return nil
}

// storeTrajectory selects an experiment's finished runs as a trajectory,
// failing when the selection is empty (an empty side would make the gate
// vacuously pass).
func storeTrajectory(st *recorder.Store, experiment string) (*telemetry.Trajectory, error) {
	runs, err := st.Select(experiment)
	if err != nil {
		return nil, err
	}
	tr := recorder.TrajectoryOf(runs)
	if len(tr.Runs) == 0 {
		return nil, fmt.Errorf("run store %s: no finished runs for experiment %q", st.Dir, experiment)
	}
	return tr, nil
}
