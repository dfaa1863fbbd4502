package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"lmas/internal/plot"
	"lmas/internal/recorder"
)

// runQuery answers questions against a run store:
//
//	lmasreport query STORE list  [-experiment E]
//	lmasreport query STORE show  RUN-ID
//	lmasreport query STORE trace [RUN-ID ...] [-experiment E] [-o OUT.json]
//	lmasreport query STORE prune -keep N [-dry-run]
//
// list enumerates runs; show renders one stored run with the same tables as
// `show`; trace composes stored spans into one Perfetto file; prune applies
// the retention policy. One metric across stored runs is `trend`; comparing
// two runs is `diff` on their report files.
func runQuery(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("query: want STORE and a subcommand (list|show|trace|prune)")
	}
	dir, sub, rest := args[0], args[1], args[2:]
	switch sub {
	case "list":
		return queryList(dir, rest)
	case "show":
		return queryShow(dir, rest)
	case "trace":
		return queryTrace(dir, rest)
	case "prune":
		return queryPrune(dir, rest)
	}
	return fmt.Errorf("query: unknown subcommand %q", sub)
}

func queryList(dir string, args []string) error {
	fs := flag.NewFlagSet("query list", flag.ExitOnError)
	exp := fs.String("experiment", "", "only this experiment")
	if pos := parseMixed(fs, args); len(pos) != 0 {
		return fmt.Errorf("query list: unexpected argument %q", pos[0])
	}
	st, err := openStoreRead(dir)
	if err != nil {
		return err
	}
	runs, err := st.Runs()
	if err = warnSkipped(err); err != nil {
		return err
	}
	t := plot.NewTable(fmt.Sprintf("Run store %s", dir),
		"run", "experiment", "name", "started", "config", "rev", "runtime(s)", "spans", "state")
	shown := 0
	for _, run := range runs {
		h := run.Header
		if *exp != "" && h.Experiment != *exp {
			continue
		}
		runtime, state := "-", "unfinished"
		if rep := run.Report(); rep != nil {
			runtime = fmt.Sprintf("%.4f", rep.RuntimeSec)
			state = "finished"
		} else if run.Finished() {
			state = "failed (no report)"
		}
		t.AddRow(h.RunID, h.Experiment, h.Name, h.StartedAt, h.ConfigHash, h.GitRev,
			runtime, len(run.Spans()), state)
		shown++
	}
	if shown == 0 {
		return fmt.Errorf("query list: no matching runs in %s", dir)
	}
	fmt.Println(t)
	return nil
}

func queryShow(dir string, args []string) error {
	fs := flag.NewFlagSet("query show", flag.ExitOnError)
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("query show: want exactly one RUN-ID")
	}
	st, err := openStoreRead(dir)
	if err != nil {
		return err
	}
	runs, err := st.Runs()
	if err = warnSkipped(err); err != nil {
		return err
	}
	for _, run := range runs {
		if run.Header.RunID != pos[0] {
			continue
		}
		h := run.Header
		fmt.Printf("run %s  experiment=%s  config=%s  rev=%s  started=%s\n",
			h.RunID, h.Experiment, h.ConfigHash, h.GitRev, h.StartedAt)
		fmt.Printf("records: %d spans\n\n", len(run.Spans()))
		rep := run.Report()
		if rep == nil {
			return fmt.Errorf("query show: run %s never finished (no report record)", pos[0])
		}
		showReport(rep)
		return nil
	}
	return fmt.Errorf("query show: no run %q in %s", pos[0], dir)
}

// queryTrace composes the stored trace spans of one or more runs into a
// single Chrome trace-event JSON file, loadable in Perfetto — the cross-run
// view a per-run trace file cannot give. With explicit RUN-IDs only those
// runs contribute (in the order given); otherwise every run in the store (or
// the selected experiment) that recorded spans does.
func queryTrace(dir string, args []string) error {
	fs := flag.NewFlagSet("query trace", flag.ExitOnError)
	exp := fs.String("experiment", "", "only this experiment (ignored with explicit RUN-IDs)")
	out := fs.String("o", "", "output file (default stdout)")
	ids := parseMixed(fs, args)
	st, err := openStoreRead(dir)
	if err != nil {
		return err
	}
	runs, err := st.Runs()
	if err = warnSkipped(err); err != nil {
		return err
	}
	var chosen []*recorder.RunRecord
	if len(ids) > 0 {
		byID := make(map[string]*recorder.RunRecord, len(runs))
		for _, run := range runs {
			byID[run.Header.RunID] = run
		}
		for _, id := range ids {
			run, ok := byID[id]
			if !ok {
				return fmt.Errorf("query trace: no run %q in %s", id, dir)
			}
			chosen = append(chosen, run)
		}
	} else {
		for _, run := range runs {
			if *exp != "" && run.Header.Experiment != *exp {
				continue
			}
			if len(run.Spans()) > 0 {
				chosen = append(chosen, run)
			}
		}
	}
	spans := 0
	for _, run := range chosen {
		spans += len(run.Spans())
	}
	if spans == 0 {
		return fmt.Errorf("query trace: no stored spans (record runs with tracing attached, e.g. dsmsort -trace -record)")
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := recorder.ComposeTrace(w, chosen); err != nil {
		return err
	}
	if *out != "" {
		fmt.Printf("query trace: %d span(s) from %d run(s) -> %s\n", spans, len(chosen), *out)
	}
	return nil
}

// queryPrune applies the store's retention policy: keep the newest -keep
// runs (by header start time, run ID tiebreak) and delete the rest. -dry-run
// lists the victims without touching any file.
func queryPrune(dir string, args []string) error {
	fs := flag.NewFlagSet("query prune", flag.ExitOnError)
	keep := fs.Int("keep", -1, "number of newest runs to keep (required)")
	dry := fs.Bool("dry-run", false, "list what would be pruned without deleting")
	if pos := parseMixed(fs, args); len(pos) != 0 {
		return fmt.Errorf("query prune: unexpected argument %q", pos[0])
	}
	if *keep < 0 {
		return fmt.Errorf("query prune: -keep N is required")
	}
	st, err := openStoreRead(dir)
	if err != nil {
		return err
	}
	victims, err := st.Prune(*keep, *dry)
	if err = warnSkipped(err); err != nil {
		return err
	}
	verb := "pruned"
	if *dry {
		verb = "would prune"
	}
	for _, run := range victims {
		h := run.Header
		fmt.Printf("%s %s (experiment=%s started=%s)\n", verb, h.RunID, h.Experiment, h.StartedAt)
	}
	fmt.Printf("query prune: %s %d run(s), kept newest %d\n", verb, len(victims), *keep)
	return nil
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
// process left behind. Anything else is returned unchanged.
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
