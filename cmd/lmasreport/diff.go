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

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	rt := fs.Float64("runtime-threshold", telemetry.DefaultDiffOptions().RuntimeThreshold,
		"relative runtime growth that counts as a regression")
	p99 := fs.Float64("p99-threshold", 0,
		"relative p99 latency growth that counts as a regression (0 = informational only)")
	quiet := fs.Bool("q", false, "print only regressions and the verdict")
	store := fs.String("store", "",
		"read BASE and NEW as experiment names from this run store instead of report files")
	names := parseMixed(fs, args)
	if len(names) != 2 {
		if *store != "" {
			return fmt.Errorf("diff: want BASE and NEW experiment names, have %d arg(s)", len(names))
		}
		return fmt.Errorf("diff: want BASE and NEW report files, have %d arg(s)", len(names))
	}
	var base, next *telemetry.Trajectory
	if *store != "" {
		st, err := openStoreRead(*store)
		if err != nil {
			return err
		}
		if base, err = storeTrajectory(st, names[0]); err != nil {
			return err
		}
		if next, err = storeTrajectory(st, names[1]); err != nil {
			return err
		}
	} else {
		var err error
		if base, err = telemetry.ReadFile(names[0]); err != nil {
			return fmt.Errorf("base: %w", err)
		}
		if next, err = telemetry.ReadFile(names[1]); err != nil {
			return fmt.Errorf("new: %w", err)
		}
	}

	res := telemetry.Diff(base, next, telemetry.DiffOptions{
		RuntimeThreshold: *rt,
		P99Threshold:     *p99,
	})
	if n := renderDiff(res, names[0], names[1], *quiet); n > 0 {
		fmt.Fprintf(os.Stderr, "lmasreport diff: %d regression(s) past threshold\n", n)
		os.Exit(1)
	}
	fmt.Println("no regressions past thresholds")
	return nil
}

// renderDiff prints the comparison table and any missing-run notes, and
// returns the number of regressions past threshold. Shared by `diff` and
// `query gate` so the store-backed verdict is computed by exactly the same
// code as the file-based CI gate.
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
