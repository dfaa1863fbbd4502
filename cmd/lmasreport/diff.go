package main

import (
	"flag"
	"fmt"
	"os"

	"lmas/internal/plot"
	"lmas/internal/telemetry"
)

// runDiff compares two report or trajectory files field by field and exits 1
// when a gated field regresses past its threshold: the one regression gate.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	rt := fs.Float64("runtime-threshold", telemetry.DefaultDiffOptions().RuntimeThreshold,
		"relative runtime growth that counts as a regression")
	p99 := fs.Float64("p99-threshold", 0,
		"relative p99 latency growth that counts as a regression (0 = informational only)")
	quiet := fs.Bool("q", false, "print only regressions and the verdict")
	files := parseMixed(fs, args)
	if len(files) != 2 {
		return fmt.Errorf("diff: want BASE and NEW report files, have %d arg(s)", len(files))
	}
	base, err := telemetry.ReadFile(files[0])
	if err != nil {
		return fmt.Errorf("base: %w", err)
	}
	next, err := telemetry.ReadFile(files[1])
	if err != nil {
		return fmt.Errorf("new: %w", err)
	}
	res := telemetry.Diff(base, next, telemetry.DiffOptions{
		RuntimeThreshold: *rt,
		P99Threshold:     *p99,
	})
	if n := renderDiff(res, files[0], files[1], *quiet); n > 0 {
		fmt.Fprintf(os.Stderr, "lmasreport diff: %d regression(s) past threshold\n", n)
		os.Exit(1)
	}
	fmt.Println("no regressions past thresholds")
	return nil
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
